"""Source rules for src/landauer, checked with the standard library alone.

Invariants must survive `python -O`, so library code raises an error where
it would otherwise assert.  Every module-level import must be named by the
module that makes it, __init__.py included.  Every cache stays bounded: an
lru_cache names its maxsize as an int literal, and functools.cache wraps
only functions that take no parameters (one value per process).

Every public top-level name, and every public method or property of a
public class, has a caller beyond the unit tests: it is referenced outside
its own definition in src/landauer, in bench/ or in the acceptance suite,
or it is on the PAPER_FACING allow-list with its reason.  A top-level name
counts as referenced when it is read as a name or an attribute, or
imported; a method only when it is read as an attribute.  Methods are
matched by attribute name alone, with no type inference, so a method that
shares its name with a used method of another class passes unnoticed.

A module imports a _-prefixed name from a sibling module only when the
name is on the SHARED_PRIVATE allow-list with its reason.

A function stores into an instance __dict__ (by subscript or by .update),
that is, caches a value on an object, only when it is on the
OBJECT_CACHES allow-list with its reason.  What a constructor can build,
it builds and stores with object.__setattr__; a lazy cache is kept only
for what is costly or recursive to build up front.

Results are exact: big integers and Fractions.  A float literal, a call to
float or to math.log, log2, exp or sqrt, and any / or /= appear only at
the FLOAT_SITES, each a presentation boundary listed with its reason, and
every listed site still makes a float.

Every size refusal goes through circuits.check_sweep, the only function
that constructs DomainTooLarge, so the sweep ceiling is read, compared
and worded in one place.

Only circuits imports numpy, inside the functions of its permutation
table, the one numpy path; every other state batch is Python-int rows.
The modules that neither sweep states nor call one that does (bitstring,
compress, irrev, thermo) import without numpy, and the CLI runs compile,
simulate, compress, bounds, the four demon scenarios, prbox and clausius
without loading it.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "landauer").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# Paper-facing reports kept although only unit tests call them.
PAPER_FACING = {
    "circuits.complexity_drift_report": "the second law as description-length drift along a trajectory",
    "thermo.circular_combination_report": "a computation's gain equals its reverse cost: no free-energy cycle",
    "circuits.normalize_to_toffoli": "the Toffoli-only discipline that the circuits docstring and README promise",
}

# Private names that sibling modules may import.
SHARED_PRIVATE = {
    "bitstring._trusted": "wraps text a kernel already built from '0'/'1' without checking it again",
    "circuits._to_mask": "the one state-as-int convention, shared by the constant-line check, the Fig. 1 build and the weight-class rows",
    "bitstring._TO_ROWS": "the one '0'/'1' text -> 0/1 int row table, for the gate kernel, the netlist evaluator and lz78",
    "bitstring._FROM_ROWS": "the one 0/1 int row -> '0'/'1' text table, for the gate kernel and the netlist evaluator",
}

# Functions and module constants that make floats, each for presentation only.
FLOAT_SITES = {
    "clausius.clausius_experiment": "the per-n trend is log2 of an exact ratio, rendered for the report",
    "thermo.BOLTZMANN_K": "the SI Boltzmann constant in J/K, used only to print joules",
    "thermo.LN2": "ln 2, used only to print joules",
    "thermo.DEFAULT_TEMPERATURE": "the CLI's default temperature in kelvin, a float as argparse parses one",
    "thermo.to_joules": "turns exact bit counts into joules for printing",
}

# math functions whose results are floats
FLOAT_MATH = {"log", "log2", "exp", "sqrt"}


# Functions that cache a value on an object, built only when first asked for.
OBJECT_CACHES = {
    "circuits.permutation_table": "a sweep of all 2^width states, which most circuits are never asked for",
}


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


def private_imports(tree: ast.Module) -> list[str]:
    """'module._name' for each _-prefixed name, dunders aside, imported from
    a module of the package by a relative import or by its landauer. path."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("landauer.")):
            module = (node.module or "").rpartition(".")[2]
            names = [a.name for a in node.names]
            found += [f"{module}.{n}" for n in names if n.startswith("_") and not n.endswith("__")]
    return sorted(found)


def numpy_imports(tree: ast.Module) -> list[int]:
    """Lines of imports of numpy or a numpy submodule, anywhere in the module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "numpy" for m in modules):
            lines.append(node.lineno)
    return lines


def object_caches(tree: ast.Module) -> list[str]:
    """'function' or 'Class.method' for each top-level function or method
    that stores into an instance __dict__, by subscript or by .update."""
    found = []
    for node in tree.body:
        scope, fns = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for fn in fns:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_stores_into_dict, ast.walk(fn))):
                found.append(scope + fn.name)
    return found


def _stores_into_dict(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "update":
        target = node.func.value
    else:
        return False
    return isinstance(target, ast.Attribute) and target.attr == "__dict__"


def float_sites(tree: ast.Module) -> dict[str, list[int]]:
    """{'site': lines} for each top-level function, method ('Class.method'),
    assigned name or other statement ('<module>') of the module that makes
    a float: a float literal, a call to float or to a FLOAT_MATH function of
    math, an import of one from math, or a / or /=."""
    found: dict[str, list[int]] = {}
    for scope, node in _statements(tree.body, ""):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)] or ["<module>"]
        else:
            names = ["<module>"]
        lines = sorted(n.lineno for n in ast.walk(node) if _makes_float(n))
        if lines:
            for name in names:
                found.setdefault(scope + name, []).extend(lines)
    return found


def _statements(body, scope):
    """(scope, statement) for each statement, descending into classes."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _statements(node.body, f"{scope}{node.name}.")
        else:
            yield scope, node


def too_large_sites(tree: ast.Module) -> list[str]:
    """'function', 'Class.method' or '<module>' for each top-level
    statement that constructs DomainTooLarge, by name or as an attribute."""
    found = []
    for scope, node in _statements(tree.body, ""):
        calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
        if any(getattr(f, "id", getattr(f, "attr", "")) == "DomainTooLarge" for f in calls):
            found.append(scope + getattr(node, "name", "<module>"))
    return found


def _makes_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name in FLOAT_MATH for a in node.names)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name):
            return f.id == "float"
        return isinstance(f, ast.Attribute) and f.attr in FLOAT_MATH and getattr(f.value, "id", "") == "math"
    return False


def references(nodes) -> tuple[Counter, Counter]:
    """How often each name is referenced in the nodes: (as a name, an
    attribute or an import; as an attribute only)."""
    names, attrs = Counter(), Counter()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names, attrs


def uncalled(tree: ast.Module, names: Counter, attrs: Counter) -> list[str]:
    """Public top-level names and public methods of public classes in the
    module that nothing outside their own definition references, given the
    reference counts of every caller (the module included)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own_names, _ = references([node])
        found += [n for n in defined if not n.startswith("_") and names[n] == own_names[n]]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_"):
                    if attrs[m.name] == references([m])[1][m.name]:
                        found.append(f"{node.name}.{m.name}")
    return found


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_named(path):
    unused = unused_imports(parse(path))
    assert not unused, f"{path.name}: imported but never named: {unused}"


def test_the_caller_rule_flags_names_that_only_their_definition_reaches():
    tree = ast.parse(
        "LIMIT = 3\n"
        "def used(): return LIMIT\n"
        "def unused(n): return unused(n - 1) if n else used()\n"
        "class Box:\n"
        "    def size(self): return 1\n"
        "    def spare(self): return self.spare()\n"
        "    def _hidden(self): pass\n"
    )
    caller = ast.parse("from box import Box\nBox().size()\n")
    assert uncalled(tree, *references([tree, caller])) == ["unused", "Box.spare"]


def test_every_public_name_has_a_caller_beyond_the_unit_tests():
    names, attrs = references(parse(p) for p in CALLERS)
    found = {f"{p.stem}.{n}" for p in SOURCES for n in uncalled(parse(p), names, attrs)}
    assert not found - PAPER_FACING.keys(), f"only unit tests reach: {sorted(found - PAPER_FACING.keys())}"
    assert not PAPER_FACING.keys() - found, f"allow-listed but called: {sorted(PAPER_FACING.keys() - found)}"


def test_the_private_import_rule_flags_private_names_from_the_package():
    tree = ast.parse(
        "from .bitstring import BitString, _trusted\n"
        "from os import _exit\nimport _thread\n"
        "def f():\n    from landauer.thermo import _bound_reports\n"
        "from . import __version__\n"
    )
    assert private_imports(tree) == ["bitstring._trusted", "thermo._bound_reports"]


def test_private_names_cross_modules_only_from_the_allow_list():
    found = {(p.name, name) for p in SOURCES for name in private_imports(parse(p))}
    stray = sorted(f"{module}: {name}" for module, name in found if name not in SHARED_PRIVATE)
    assert not stray, f"private names imported from a sibling: {stray}"
    unused = SHARED_PRIVATE.keys() - {name for _, name in found}
    assert not unused, f"allow-listed but never imported: {sorted(unused)}"


def test_the_object_cache_rule_flags_stores_into_an_instance_dict():
    tree = ast.parse(
        "class C:\n"
        "    def __post_init__(self): object.__setattr__(self, 'prog', ())\n"
        "    def _program(self):\n        self.__dict__['_prog'] = p = ()\n        return p\n"
        "    def peek(self): return self.__dict__.get('_prog')\n"
        "def warm(c): c.__dict__.update(_t=1)\n"
        "def tally(d, c): d['n'] = c.__dict__['n']; d.update(m=1)\n"
        "def bump(c): c.__dict__['n'] += 1\n"
    )
    assert object_caches(tree) == ["C._program", "warm", "bump"]


def test_only_the_allow_listed_functions_cache_on_an_object():
    found = {f"{p.stem}.{name}" for p in SOURCES for name in object_caches(parse(p))}
    stray, stale = sorted(found - OBJECT_CACHES.keys()), sorted(OBJECT_CACHES.keys() - found)
    assert not stray, f"caches on an object, not allow-listed: {stray}"
    assert not stale, f"allow-listed but caches nothing: {stale}"


def test_the_float_rule_flags_every_way_to_make_a_float():
    tree = ast.parse(
        "import math\nfrom math import sqrt, comb\n"
        "HALF = 0.5\nTWO = 2\n"
        "def exact(n): return math.comb(n, 2) // 2 + math.isqrt(n)\n"
        "def ratio(a, b): return a / b\n"
        "def scale(x):\n    x /= 3\n    return x\n"
        "def bits(n): return math.log2(n) + math.exp(1) + math.log(n)\n"
        "def cast(n: float) -> float: return float(n)\n"
        "class C:\n    k: float = 1e-3\n    def m(self): return (7).bit_length()\n"
        "if TWO:\n    ROOT = 2 ** 0.5\n"
    )
    assert float_sites(tree) == {
        "<module>": [2, 16],
        "HALF": [3],
        "ratio": [6],
        "scale": [8],
        "bits": [10, 10, 10],
        "cast": [11],
        "C.k": [13],
    }


def test_floats_appear_only_at_the_listed_presentation_sites():
    found = {f"{p.stem}.{site}": lines for p in SOURCES for site, lines in float_sites(parse(p)).items()}
    stray = {site: lines for site, lines in found.items() if site not in FLOAT_SITES}
    assert not stray, f"floats outside the listed sites (site: lines): {stray}"
    stale = sorted(FLOAT_SITES.keys() - found.keys())
    assert not stale, f"listed as making a float but makes none: {stale}"


def test_the_ceiling_rule_flags_every_construction_of_domain_too_large():
    tree = ast.parse(
        "from . import errors\nfrom .errors import DomainTooLarge\n"
        "def check(n):\n    raise DomainTooLarge(n)\n"
        "def other(n):\n    return errors.DomainTooLarge(n)\n"
        "def names():\n    return DomainTooLarge\n"
        "class C:\n    def m(self):\n        raise DomainTooLarge('x')\n"
        "E = DomainTooLarge('y')\n"
    )
    assert too_large_sites(tree) == ["check", "other", "C.m", "<module>"]


def test_only_check_sweep_constructs_domain_too_large():
    found = sorted(f"{p.stem}.{site}" for p in SOURCES for site in too_large_sites(parse(p)))
    assert found == ["circuits.check_sweep"], f"DomainTooLarge built outside circuits.check_sweep: {found}"


def test_the_numpy_rule_flags_imports_at_any_depth():
    tree = ast.parse(
        "import numpy as np\nimport os, numpy.linalg\nfrom numpy import uint8\n"
        "from .numpy import x\nimport numpyish\n"
        "def f():\n    from numpy.lib import stride_tricks\n    import numpy\n"
    )
    assert numpy_imports(tree) == [1, 2, 3, 7, 8]


def test_only_circuits_imports_numpy():
    found = {p.name: numpy_imports(parse(p)) for p in SOURCES}
    stray = {name: lines for name, lines in found.items() if lines and name != "circuits.py"}
    assert not stray, f"numpy imported outside circuits (module: lines): {stray}"
    assert found["circuits.py"], "circuits no longer imports numpy: drop this rule's exception"


def run_python(code: str, cwd=None) -> str:
    """The stdout of `code` run in a fresh interpreter on this checkout's src/."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    return done.stdout.strip()


def test_the_numpy_free_modules_import_without_numpy(tmp_path):
    code = (
        "import sys\n"
        "import landauer.bitstring, landauer.compress, landauer.irrev, landauer.thermo\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_python(code) == "False"
    # importing circuits (so the CLI) loads no numpy; only its permutation table needs it
    code = (
        "import contextlib, io, sys\n"
        "from landauer.cli import main\n"
        "from landauer.irrev import IrreversibleCircuit, LogicGate, save_netlist\n"
        "save_netlist(IrreversibleCircuit(('a', 'b'), (LogicGate('g', 'and', ('a', 'b')),), ('g',)), 'net.json')\n"
        "open('s.bits', 'w').write('0110' * 8)\n"
        "open('x.bits', 'w').write('01')\n"
        "sys.stdin = io.StringIO('0110100111001010')\n"
        "runs = [\n"
        "    ['compile', '--netlist', 'net.json', '--out', 'c.json'],\n"
        "    ['compile', '--fig1', '--codec', 'xor', '--block', '4', '--helper', '10'],\n"
        "    ['simulate', '--circuit', 'c.json', '--input', '1100', '--trajectory'],\n"
        "    ['compress', '--codec', 'lz78'],\n"
        "    ['bounds', '--s-file', 's.bits'],\n"
        "    ['demon', '--scenario', 'extract', '--s-file', 's.bits', '--x-file', 'x.bits'],\n"
        "    ['demon', '--scenario', 'extract-erase', '--s-file', 's.bits'],\n"
        "    ['demon', '--scenario', 'erase-extract', '--s-file', 's.bits'],\n"
        "    ['demon', '--scenario', 'xor-copy', '--s-file', 's.bits', '--x-file', 'x.bits'],\n"
        "    ['prbox', '--n', '256'],\n"
        "    ['clausius', '--n', '4', '--delta', '1/4', '--circuits', '2'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert run_python(code, cwd=tmp_path) == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] False"
