"""The library names that bench/spans.py looks up must exist in src/landauer.

The span tracer keys its work counters (COUNTERS), inclusive-time buckets
(INCLUSIVE) and several per-layer metrics (the constant keys and prefixes
that layer_metrics reads from its call counts) on "<module>.<function>"
span names.  A renamed library function would make the matching metric
read 0 without any error, so each name must be a public module-level
function of its landauer module, the kind the tracer wraps.  Per-codec
spans ("compress.<codec>.<direction>") are named from the registered
codecs instead.  bench/spans.py is imported read-only.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def traced_functions(layer: str) -> set[str]:
    """The public module-level functions that the tracer wraps in a layer."""
    mod = importlib.import_module(f"landauer.{layer}")
    return {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_") and isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
    }


def metric_lookups() -> tuple[set[str], set[str]]:
    """(span names, span prefixes) that layer_metrics reads from its counts."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    names, prefixes = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "calls":
            if isinstance(node.slice, ast.Constant):
                names.add(node.slice.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "calls_of":
            prefixes.add(node.args[0].value)
    return names, prefixes


def test_every_span_name_the_bench_reads_is_a_traced_library_function(spans):
    codec_spans = {f"compress.{c}.{d}" for c in spans.CODECS for d in ("compress", "decompress")}
    names, prefixes = metric_lookups()
    names |= set(spans.COUNTERS) | {s for group in spans.INCLUSIVE.values() for s in group}
    names -= codec_spans
    # the parse found the lookups that layer_metrics holds today
    assert {"irrev.evaluate", "compress.estimate_complexity"} <= names
    assert {"demon.run_", "thermo.", "clausius."} <= prefixes
    missing = []
    for span in sorted(names | prefixes):
        layer, rest = span.split(".", 1)
        functions = traced_functions(layer)
        if not (rest in functions if span in names else any(f.startswith(rest) for f in functions)):
            missing.append(span)
    assert missing == []


def test_every_codec_span_names_a_registered_codec(spans):
    from landauer.compress import REGISTRY

    assert sorted(spans.CODECS) == sorted(REGISTRY)
