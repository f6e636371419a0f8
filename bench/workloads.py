"""The four benchmark workloads: seeded inputs, the ops, and their checks.

Each workload is a fixed cyclic mix of op kinds.  Every kind owns a pool of
instances; instance i's inputs derive from (MASTER, workload, kind, i) alone,
so ``expected.json`` can hold one output digest per instance.  The run seed
only chooses the order in which a run visits each pool, so the same seed
gives the same inputs and different seeds visit different instances.

An op kind is ``run`` (the library calls, timed as the op's latency) plus
``check`` (the invariants on the output and a canonical summary of it,
whose digest ``Runner`` compares with the expected one).  The library is reached
through module attributes at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from landauer import circuits, clausius, compress, demon, irrev, prbox, rng, synth, thermo
from landauer.bitstring import BitString

MASTER = 190110290  # fixed: instance inputs must not depend on the run seed
DIGEST_HEX = 10


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _gates(circuit) -> str:
    return _sha(repr([(g.kind, g.controls, g.targets) for g in circuit.gates]))


@dataclass(frozen=True)
class Kind:
    """One op kind: ``make(i, workdir)`` builds instance i's inputs,
    ``run(*inputs)`` is the op, and ``check(*inputs, out)`` returns
    (summary, failed checks as (check name, layer) pairs)."""

    name: str
    layer: str  # the layer a digest mismatch is charged to
    pool: int
    make: Callable
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[str, ...]
    kinds: dict[str, Kind]
    trace_ops: int  # ops in each pass of a traced run; a multiple of len(mix)

    @property
    def warmup(self) -> int:
        """Length of the shortest mix prefix that holds every kind once."""
        return max(self.mix.index(k) for k in self.kinds) + 1


def _stream(workload: str, kind: str, i: int):
    return rng.substream(MASTER, workload, kind, i)


def _seed(workload: str, kind: str, i: int) -> int:
    return rng.substream_seed(MASTER, workload, kind, i)


def _flips(S: BitString, positions) -> BitString:
    mask = sum(1 << (len(S) - 1 - p) for p in positions)
    return S.xor(BitString.from_int(mask, len(S)))


# --- sweep: exhaustive sweeps through the gate interpreter ----------------------

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
SOURCE = clausius.WeightCouple(8, 4, 4)
TARGET = clausius.WeightCouple(8, 6, 2)


def _run_clausius(seed):
    return clausius.clausius_experiment(8, HALF, QUARTER, circuits=1, seed=seed)


def _check_clausius(seed, r):
    summary = {
        "point": str(r.max_point_fraction),
        "tail": str(r.max_tail_fraction),
        "ceiling": str(r.point_ceiling),
        "tail_ceiling": str(r.tail_ceiling),
        "gates": r.gate_count,
        "trend": [[m, repr(v)] for m, v in r.per_n_trend],
    }
    return summary, [] if r.within_ceiling else [("within_ceiling", "clausius")]


def _run_transitions(seed):
    c = clausius.random_conservative_circuit(16, 64, seed)
    return clausius.count_class_transitions(c, SOURCE, TARGET)


def _check_transitions(seed, count):
    ok = 0 <= count <= TARGET.class_size()
    return {"count": count}, [] if ok else [("within_ceiling", "clausius")]


def _make_netlist(i, workdir):
    return (irrev.random_netlist(10, 20, _stream("sweep", "bennett", i)),)


def _run_bennett(net):
    compiled = synth.bennett_compile(net)
    report = synth.verify_compiled(compiled, lambda data: irrev.evaluate(net, data))
    return compiled, report


def _check_compiled(compiled, report, extra):
    summary = {
        "width": compiled.circuit.width,
        "gates": _gates(compiled.circuit),
        "swept": report.swept,
    }
    failed = [] if report.ok else [("VerificationReport.ok", "synth")]
    return summary, failed + extra


def _check_bennett(net, out):
    return _check_compiled(*out, [])


def _run_perm(seed):
    c = clausius.random_conservative_circuit(16, 64, seed)
    table = circuits.permutation_table(c)
    injective = circuits.check_injective_bruteforce(c, 16)
    conservative = circuits.check_conservative(c, exhaustive=True)
    return table, injective, conservative


def _check_perm(seed, out):
    table, injective, conservative = out
    summary = {"table": hashlib.sha256(table.astype("<i8").tobytes()).hexdigest()[:16]}
    failed = [] if injective else [("injective", "circuits")]
    failed += [] if conservative else [("conservative", "circuits")]
    return summary, failed


def _seeded(workload, kind):
    return lambda i, workdir: (_seed(workload, kind, i),)


SWEEP = Workload(
    name="sweep",
    # clausius and transitions twice: the median and the 90th percentile then
    # both fall inside these pure-Python sweeps, away from a jump between kinds
    mix=("clausius", "bennett", "transitions", "perm", "clausius", "transitions"),
    kinds={
        "clausius": Kind("clausius", "clausius", 128, lambda i, w: (i,), _run_clausius, _check_clausius),
        "transitions": Kind(
            "transitions", "clausius", 128, _seeded("sweep", "transitions"),
            _run_transitions, _check_transitions,
        ),
        "bennett": Kind("bennett", "synth", 128, _make_netlist, _run_bennett, _check_bennett),
        "perm": Kind("perm", "circuits", 128, _seeded("sweep", "perm"), _run_perm, _check_perm),
    },
    trace_ops=30,
)


# --- codec: compression and accounting on long strings -----------------------------

PAIR_SIZES = (64, 512, 4096)
PAIR_HELPERS = ("empty", "random", "near", "periodic")


def _make_pair(n, helper):
    def make(i, workdir):
        r = _stream("codec", f"pair-{n}-{helper}", i)
        if helper == "periodic":
            period = rng.random_bits(r, r.randint(8, 32))
            S = BitString((str(period) * (n // len(period) + 1))[:n])
            return S, period
        S = rng.random_bits(r, n)
        if helper == "empty":
            return S, BitString()
        if helper == "random":
            return S, rng.random_bits(r, n)
        return S, _flips(S, r.sample(range(n), 4))

    return make


def _run_pair(S, X):
    codes = {}
    decoded = {}
    for name, codec in compress.REGISTRY.items():
        codes[name] = codec.compress(S, X)
        decoded[name] = codec.decompress(codes[name], X)
    estimate = compress.estimate_complexity(S, X)
    wv = thermo.wv_report(S, X, compress.LZ78)
    ec = thermo.erasure_cost_interval(S, X, compress.LZ78)
    first = demon.run_extract_then_erase(S, X, compress.LZ78)
    second = demon.run_erase_then_extract(S, X, compress.LZ78)
    replays = (demon.replay_backward(first), demon.replay_backward(second))
    return codes, decoded, estimate, wv, ec, (first, second), replays


def _scenario_summary(r):
    return [r.scenario, r.wv_bits, r.ec_bits, r.final_tape.digest()[:16], str(r.ledger.total_bits())]


def _check_pair(S, X, out):
    codes, decoded, estimate, wv, ec, scenarios, replays = out
    n = len(S)
    failed = [(f"roundtrip.{name}", "compress") for name in codes if decoded[name] != S]
    if wv.lower_bits + ec.upper_bits != n:
        failed.append(("wv_lower+ec_upper==len(S)", "thermo"))
    for r, back in zip(scenarios, replays):
        if r.wv_bits + r.ec_bits != n:
            failed.append((f"wv+ec==len(S).{r.scenario}", "demon"))
        if back != r.initial_tape:
            failed.append((f"replay_backward.{r.scenario}", "demon"))
    summary = {
        "codes": {name: [len(c), _sha(str(c))] for name, c in codes.items()},
        "estimate": [estimate.bits, estimate.codec_name],
        "wv": [wv.lower_bits, wv.upper_bits, wv.lower_codec, wv.upper_codec],
        "ec": [ec.lower_bits, ec.upper_bits, ec.lower_codec, ec.upper_codec],
        "scenarios": [_scenario_summary(r) for r in scenarios],
    }
    return summary, failed


def _run_prbox(seed):
    return prbox.pr_report(prbox.generate_pr_quadruple(4096, seed))


def _check_prbox(seed, r):
    rates = ("rate_a", "rate_b", "rate_x", "rate_y", "rate_ab_joint", "no_signaling_gap_x",
             "no_signaling_gap_y", "rate_x_given_a", "rate_y_given_b")
    summary = {name: str(getattr(r, name)) for name in rates}
    return summary, [] if r.pr_condition else [("pr_condition", "prbox")]


def _codec_kinds():
    kinds = {}
    for n in PAIR_SIZES:
        for helper in PAIR_HELPERS:
            name = f"pair-{n}-{helper}"
            kinds[name] = Kind(name, "compress", 256, _make_pair(n, helper), _run_pair, _check_pair)
    kinds["prbox"] = Kind("prbox", "prbox", 256, _seeded("codec", "prbox"), _run_prbox, _check_prbox)
    return kinds


def _codec_mix():
    pairs = [f"pair-{n}-{h}" for n in PAIR_SIZES for h in PAIR_HELPERS]
    # every 8th op is a prbox report; 96 ops visit each pair kind 7 times
    mix, k = [], 0
    for j in range(96):
        if j % 8 == 7:
            mix.append("prbox")
        else:
            mix.append(pairs[k % len(pairs)])
            k += 1
    return tuple(mix)


CODEC = Workload(
    name="codec",
    mix=_codec_mix(),
    kinds=_codec_kinds(),
    trace_ops=288,
)


# --- blocks: many tiny codec calls behind one helper, small synthesized circuits ------

FIG1_CODECS = ("bookmark8", "lz78", "xor")


def _make_fig1(codec_name):
    def make(i, workdir):
        # bookmark8 takes the compressed branch, which adds chain ancillas:
        # 2-bit helpers keep its full line map at 17 lines
        width = 2 if codec_name == "bookmark8" else 2 + (i >= 4) + (i >= 12)
        value = i - (0 if width == 2 else 4 if width == 3 else 12)
        return compress.REGISTRY[codec_name], BitString.from_int(value, width)

    return make


def _run_fig1(codec, helper):
    compiled = synth.build_fig1_compressor(codec, 8, helper)
    report = synth.verify_compiled(compiled, synth.fig1_block_oracle(codec, 8, helper))
    injective = circuits.check_injective_bruteforce(compiled.circuit, compiled.circuit.width)
    return compiled, report, injective


def _check_fig1(codec, helper, out):
    compiled, report, injective = out
    return _check_compiled(compiled, report, [] if injective else [("injective", "circuits")])


def _make_xorcopy(i, workdir):
    r = _stream("blocks", "xorcopy", i)
    S = rng.random_bits(r, r.randint(8, 64))
    return S, rng.random_bits(r, r.randint(4, 16))


def _run_xorcopy(S, X):
    result = demon.run_xor_copy_extract(S, X, irrev.rom_circuit(S, len(X)))
    return result, demon.replay_backward(result)


def _check_xorcopy(S, X, out):
    result, back = out
    failed = [] if back == result.initial_tape else [("replay_backward", "demon")]
    if result.wv_bits != len(S) or result.final_tape.s_region.weight():
        failed.append(("full_value_extracted", "demon"))
    return _scenario_summary(result), failed


BLOCKS = Workload(
    name="blocks",
    # bookmark8 twice: the 90th percentile then falls inside its builds
    mix=(
        "fig1-bookmark8", "xorcopy", "xorcopy", "fig1-lz78", "xorcopy", "xorcopy",
        "fig1-xor", "xorcopy", "xorcopy", "fig1-bookmark8", "xorcopy", "xorcopy",
    ),
    kinds={
        "fig1-bookmark8": Kind("fig1-bookmark8", "synth", 4, _make_fig1("bookmark8"), _run_fig1, _check_fig1),
        "fig1-lz78": Kind("fig1-lz78", "synth", 28, _make_fig1("lz78"), _run_fig1, _check_fig1),
        "fig1-xor": Kind("fig1-xor", "synth", 28, _make_fig1("xor"), _run_fig1, _check_fig1),
        "xorcopy": Kind("xorcopy", "demon", 4096, _make_xorcopy, _run_xorcopy, _check_xorcopy),
    },
    trace_ops=288,
)


# --- cli: the landauer command, in process -----------------------------------------

CLI_POOL = 128
CLI_GATES = (circuits.toffoli, circuits.cnot, circuits.not_gate, circuits.fredkin)


def _cli():
    return importlib.import_module("landauer.cli")


def _cli_files(i: int, workdir: Path) -> dict[str, str]:
    """Input files of CLI instance i, shared by every kind; written once."""
    files = {name: str(workdir / f"{name}{i}") for name in ("s", "x", "net", "circ")}
    if Path(files["circ"]).exists():
        return files
    r = _stream("cli", "files", i)
    S = rng.random_bits(r, 512)
    X = _flips(S, r.sample(range(512), 8)) if i % 2 == 0 else rng.random_bits(r, 512)
    Path(files["s"]).write_text(f"{S}\n", encoding="ascii")
    Path(files["x"]).write_text(f"{X}\n", encoding="ascii")
    irrev.save_netlist(irrev.random_netlist(r.randint(4, 8), r.randint(8, 16), r), files["net"])
    gates = []
    for _ in range(24):
        make = r.choice(CLI_GATES)
        arity = 1 if make is circuits.not_gate else 2 if make is circuits.cnot else 3
        gates.append(make(*r.sample(range(10), arity)))
    circuits.save_circuit(circuits.ReversibleCircuit(10, tuple(gates)), files["circ"])
    return files


def _cli_kind(name, make_argv, check=None):
    """A CLI op kind; ``make_argv(i, files)`` returns (argv, stdin text)."""

    def make(i, workdir):
        _cli()
        return make_argv(i, _cli_files(i, workdir))

    def run(argv, stdin_text):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(out):
                code = _cli().main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def check_out(argv, stdin_text, out):
        code, text = out
        if code != 0:
            return {"exit": code}, [("exit_code==0", "cli")]
        if argv[0] in ("compress", "decompress"):
            doc = text
        else:
            doc = json.loads(text)
            doc.pop("config")  # holds the run's temporary file paths
        failed = [] if check is None else [(c, "cli") for c in check(argv, stdin_text, doc)]
        return doc, failed

    return Kind(name, "cli", CLI_POOL, make, run, check_out)


def _fig1_argv(i, files):
    r = _stream("cli", "fig1", i)
    helper = rng.random_bits(r, r.randint(2, 3))
    codec = FIG1_CODECS[i % 3]
    return ["compile", "--fig1", "--codec", codec, "--block", "8", "--helper", str(helper)], ""


def _simulate_argv(i, files):
    bits = rng.random_bits(_stream("cli", "simulate", i), 10)
    return ["simulate", "--circuit", files["circ"], "--input", str(bits), "--trajectory"], ""


def _check_simulate(argv, stdin_text, doc):
    return [] if doc["output"] == doc["trajectory"][-1] else ["output==trajectory[-1]"]


COMPRESS_CODECS = ("lz78", "xor", "bookmark8", "identity")


def _compress_argv(i, files):
    codec = COMPRESS_CODECS[i % 4]
    S = Path(files["s"]).read_text(encoding="ascii")
    return ["compress", "--codec", codec, "--helper-file", files["x"]], S


def _decompress_argv(i, files):
    codec = compress.REGISTRY[COMPRESS_CODECS[i % 4]]
    S = BitString(Path(files["s"]).read_text(encoding="ascii").strip())
    X = BitString(Path(files["x"]).read_text(encoding="ascii").strip())
    code = codec.compress(S, X)
    return ["decompress", "--codec", codec.name, "--helper-file", files["x"]], f"{code}\n"


def _check_decompress(argv, stdin_text, doc):
    helper_file = Path(argv[argv.index("--helper-file") + 1])
    S = helper_file.with_name("s" + helper_file.name[1:]).read_text(encoding="ascii")
    return [] if doc == S else ["roundtrip"]


def _bounds_argv(i, files):
    return ["bounds", "--s-file", files["s"], "--x-file", files["x"], "--codec", "lz78"], ""


def _check_bounds(argv, stdin_text, doc):
    wv, ec = doc["quantities"]
    return [] if wv["lower_bits"] + ec["upper_bits"] == doc["len_s"] else ["wv_lower+ec_upper==len(S)"]


def _demon_argv(scenario):
    def make_argv(i, files):
        argv = ["demon", "--scenario", scenario, "--s-file", files["s"], "--x-file", files["x"]]
        return argv + ["--codec", "lz78"], ""

    return make_argv


def _check_demon(argv, stdin_text, doc):
    failed = [] if doc["replay_ok"] else ["replay_ok"]
    if doc["scenario"] == "xor-copy" and doc["wv_bits"] != doc["len_s"]:
        failed.append("full_value_extracted")
    if doc["scenario"] != "extract" and not doc["conservation_ok"]:
        failed.append("conservation_ok")
    return failed


def _clausius_argv(i, files):
    return ["clausius", "--n", "4", "--delta", "1/4", "--circuits", "20", "--seed", str(i)], ""


def _prbox_argv(i, files):
    return ["prbox", "--n", "1024", "--seed", str(i)], ""


CLI = Workload(
    name="cli",
    # clausius, the slowest, twice: the 90th percentile then falls inside it
    mix=(
        "compile-netlist", "compile-fig1", "simulate", "clausius", "compress", "decompress",
        "bounds", "demon-extract", "demon-extract-erase", "demon-erase-extract",
        "demon-xor-copy", "clausius", "prbox",
    ),
    kinds={
        k.name: k
        for k in (
            _cli_kind("compile-netlist", lambda i, f: (["compile", "--netlist", f["net"]], "")),
            _cli_kind("compile-fig1", _fig1_argv),
            _cli_kind("simulate", _simulate_argv, _check_simulate),
            _cli_kind("compress", _compress_argv),
            _cli_kind("decompress", _decompress_argv, _check_decompress),
            _cli_kind("bounds", _bounds_argv, _check_bounds),
            *(
                _cli_kind(f"demon-{s}", _demon_argv(s), _check_demon)
                for s in ("extract", "extract-erase", "erase-extract", "xor-copy")
            ),
            _cli_kind(
                "clausius", _clausius_argv, lambda a, s, doc: [] if doc["within_ceiling"] else ["within_ceiling"]
            ),
            _cli_kind("prbox", _prbox_argv, lambda a, s, doc: [] if doc["pr_condition"] else ["pr_condition"]),
        )
    },
    trace_ops=546,
)

WORKLOADS = {w.name: w for w in (SWEEP, CODEC, BLOCKS, CLI)}


class Runner:
    """Generates a run's inputs and executes and checks its ops."""

    def __init__(self, workload, seed: int, workdir: Path, expected: dict):
        self.workload = workload
        self.expected = expected.get(workload.name, {})
        self.instances = {}
        self.inputs = {}
        for name, kind in workload.kinds.items():
            order = list(range(kind.pool))
            rng.substream(seed, "order", workload.name, name).shuffle(order)
            self.instances[name] = order
            self.inputs[name] = [kind.make(i, workdir) for i in order]
        self.tracer = None
        self.attempted = 0
        self.failures: list[tuple[int, str, int, str, str]] = []
        self.failed_layers: Counter = Counter()

    def op(self, j: int):
        mix = self.workload.mix
        kind = mix[j % len(mix)]
        visit = (j // len(mix)) * mix.count(kind) + mix[: j % len(mix)].count(kind)
        slot = visit % self.workload.kinds[kind].pool
        return kind, self.instances[kind][slot], self.inputs[kind][slot]

    def execute(self, j: int) -> float:
        """Run and check op j; returns its latency in seconds."""
        kind, instance, inputs = self.op(j)
        spec = self.workload.kinds[kind]
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = j
            span = tracer.open(tracer.name_id(f"op.{kind}"))
        try:
            t0 = perf_counter()
            try:
                out = spec.run(*inputs)
            finally:
                latency = perf_counter() - t0
            failed = self.check(spec, instance, inputs, out)
        except Exception as exc:  # a raising op or check is a failed op, not a crash
            failed = [(f"raised {type(exc).__name__}: {exc}", spec.layer)]
        finally:
            if tracer is not None:
                tracer.close(span)
        self.attempted += 1
        for check, layer in failed:
            self.failures.append((j, kind, instance, check, layer))
            self.failed_layers[layer] += 1
        return latency

    def check(self, spec, instance: int, inputs, out):
        summary, failed = spec.check(*inputs, out)
        digests = self.expected.get(spec.name, "")
        want = digests[instance * DIGEST_HEX : (instance + 1) * DIGEST_HEX]
        got = digest(summary)
        if got != want:
            failed.append((f"digest {got} != expected {want or 'none'}", spec.layer))
        return failed

    @property
    def failed_ops(self) -> int:
        return len({f[0] for f in self.failures})
