"""In-memory span tracing around every public function of the landauer layers.

The tracer wraps, from outside the library, every public module-level
function of each layer module and rebinds the wrapper under every name that
any landauer module (or the package) holds for it, so calls between layers
are seen as well as the benchmark's own calls.  ``CompressionCodec.compress``
and ``.decompress`` are wrapped too, to attribute codec time per codec.
``BitString`` methods are not wrapped: they run once per bit or per state,
and a span around each would measure the tracer rather than the layer.

A span is (name, start, end, parent span, op id); spans live in flat arrays
until the run ends.  Work counts are computed at the same boundaries from
each call's arguments and results, so they repeat exactly for a fixed input
set.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "bitstring",
    "circuits",
    "irrev",
    "synth",
    "compress",
    "thermo",
    "demon",
    "clausius",
    "prbox",
    "cli",
    "rng",
)
CODECS = ("identity", "lz78", "xor", "bookmark8")
CLI_SUBCOMMANDS = (
    "compile",
    "simulate",
    "compress",
    "decompress",
    "bounds",
    "demon",
    "clausius",
    "prbox",
)
# Inclusive-time buckets: metric name -> span names whose durations it sums.
INCLUSIVE = {
    "synth.compile": ("synth.bennett_compile", "synth.build_fig1_compressor"),
    "synth.verify": ("synth.verify_compiled",),
    "compress.estimator": ("compress.estimate_complexity",),
    "demon.replay": ("demon.replay_backward",),
    **{f"compress.{c}": (f"compress.{c}.compress", f"compress.{c}.decompress") for c in CODECS},
}


def _count_sim(counts, args, kwargs, result):
    counts["circuits.states_swept"] += 1
    counts["circuits.gate_evals"] += len(args[0].gates)


def _count_table(counts, args, kwargs, result):
    states = len(result)
    counts["circuits.states_swept"] += states
    counts["circuits.gate_evals"] += states * len(args[0].gates)


def _count_verify(counts, args, kwargs, result):
    counts["synth.verify.states_swept"] += result.swept


def _count_emitted(counts, args, kwargs, result):
    counts["synth.gates_emitted"] += result.circuit.gate_count()


def _count_rated(counts, args, kwargs, result):
    counts["prbox.bits_rated"] += len(args[0])


COUNTERS = {
    "circuits.simulate": _count_sim,
    "circuits.simulate_trajectory": _count_sim,
    "circuits.permutation_table": _count_table,
    "synth.verify_compiled": _count_verify,
    "synth.bennett_compile": _count_emitted,
    "synth.build_fig1_compressor": _count_emitted,
    "prbox.complexity_rate": _count_rated,
}


class Tracer:
    """Span recorder; ``install`` wraps the library, ``restore`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self.name_id(span)
        layer = span.split(".", 1)[0]
        count = COUNTERS.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                raise
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_codec(self, fn, direction: str):
        tracer = self
        ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(codec, data, helper):
            nid = ids.get(codec.name)
            if nid is None:
                nid = ids[codec.name] = tracer.name_id(f"compress.{codec.name}.{direction}")
            idx = tracer.open(nid)
            try:
                result = fn(codec, data, helper)
            except BaseException:
                tracer.raised["compress"] += 1
                raise
            finally:
                tracer.close(idx)
            if direction == "compress":
                tracer.counts["compress.bits_in"] += len(data)
                tracer.counts["compress.bits_out"] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"landauer.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        holders = [importlib.import_module("landauer"), *modules.values()]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        codec_cls = modules["compress"].CompressionCodec
        for direction in ("compress", "decompress"):
            original = vars(codec_cls)[direction]
            self._undo.append((codec_cls, direction, original))
            setattr(codec_cls, direction, self._wrap_codec(original, direction))

    def restore(self) -> None:
        while self._undo:
            holder, attr, obj = self._undo.pop()
            setattr(holder, attr, obj)

    # --- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy (self) time, inclusive buckets and work counts."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        busy, calls, total = Counter(), Counter(), Counter()
        for span, self_s, dur_s, n in zip(
            self.names,
            np.bincount(name, weights=self_time, minlength=len(self.names)),
            np.bincount(name, weights=dur, minlength=len(self.names)),
            np.bincount(name, minlength=len(self.names)),
        ):
            busy[span.split(".", 1)[0]] += float(self_s)
            total[span] = float(dur_s)
            calls[span] = int(n)

        def calls_of(prefix: str) -> int:
            return sum(n for span, n in calls.items() if span.startswith(prefix))

        codec_calls = sum(calls[f"compress.{c}.{d}"] for c in CODECS for d in ("compress", "decompress"))
        gate_evals = self.counts["circuits.gate_evals"]
        m = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
        m.update({f"{key}.busy_s": sum(total[s] for s in spans) for key, spans in INCLUSIVE.items()})
        m.update({f"{layer}.failed": self.raised[layer] for layer in LAYERS})
        m.update(
            {
                "circuits.states_swept": self.counts["circuits.states_swept"],
                "circuits.gate_evals": gate_evals,
                "circuits.ns_per_gate_eval": busy["circuits"] / gate_evals * 1e9 if gate_evals else 0.0,
                "clausius.calls": calls_of("clausius."),
                "synth.verify.states_swept": self.counts["synth.verify.states_swept"],
                "synth.gates_emitted": self.counts["synth.gates_emitted"],
                "irrev.evaluate.calls": calls["irrev.evaluate"],
                "compress.calls": codec_calls,
                "compress.us_per_call": busy["compress"] / codec_calls * 1e6 if codec_calls else 0.0,
                "compress.bits_in": self.counts["compress.bits_in"],
                "compress.bits_out": self.counts["compress.bits_out"],
                "compress.estimator.calls": calls["compress.estimate_complexity"],
                "thermo.calls": calls_of("thermo."),
                "demon.scenarios": calls_of("demon.run_"),
                "prbox.bits_rated": self.counts["prbox.bits_rated"],
                "bench.self_s": busy["op"],  # op spans are named op.<kind>
                "bench.op_s": sum(t for span, t in total.items() if span.startswith("op.")),
            }
        )
        return m

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
