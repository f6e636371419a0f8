"""Command-line front end.

Subcommands: compile, simulate, compress, decompress, bounds, demon,
clausius, prbox.  Reports are JSON (default) or text; exact rationals are
serialized as "p/q" strings so golden files never see float drift.  Every
report echoes {tool_version, seed, config} for reproducibility.

Exit codes: 0 success, 1 domain error or a result too large for memory
(structured error report on stdout), 2 usage error.  compress/decompress
are plain bit-string filters: stdin -> stdout, no report wrapper.

The parser is built once per process, on the first call to `main`, and
reused: argparse keeps no state between parses, and it looks up
sys.stdout/sys.stderr only when it prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .bitstring import BitString
from .circuits import load_circuit, save_circuit, simulate, simulate_trajectory
from .clausius import clausius_experiment
from .compress import REGISTRY
from .demon import (
    replay_backward,
    run_erase_then_extract,
    run_extract,
    run_extract_then_erase,
    run_xor_copy_extract,
)
from .errors import GeneratorMismatch, LandauerError, UnreadableInput, UnwritableOutput
from .irrev import load_netlist, rom_circuit
from .prbox import generate_pr_quadruple, pr_report
from .synth import bennett_compile, build_fig1_compressor
from .thermo import DEFAULT_TEMPERATURE, erasure_cost_interval, to_joules, wv_report

DEFAULT_SEED = 0


def _frac(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _read_bits(path: str) -> BitString:
    with open(path, "r", encoding="utf-8") as fh:
        return BitString("".join(fh.read().split()))


def _load(loader, path: str):
    """loader(path), with a file that cannot be read as a domain error."""
    try:
        return loader(path)
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path!r}: {exc.strerror or exc}") from exc


def _save(saver, value, path: str) -> None:
    """saver(value, path), with a file that cannot be written as a domain error."""
    try:
        saver(value, path)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit(report: dict, args) -> None:
    if args.report == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in _flatten(report):
            print(line)


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _flatten(doc[key], f"{prefix}{key}.")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {doc}"


def _base_report(args) -> dict:
    # echo only a temperature that to_joules accepts: finite (JSON has no nan) and > 0 K
    to_joules(0, args.temperature)
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {
        "tool_version": __version__,
        "seed": getattr(args, "seed", DEFAULT_SEED),
        "config": config,
    }


# --- subcommand handlers --------------------------------------------------------


def _cmd_compile(args) -> dict:
    if args.fig1:
        compiled = build_fig1_compressor(REGISTRY[args.codec], args.block, BitString(args.helper))
        mode = "fig1"
    else:
        compiled = bennett_compile(_load(load_netlist, args.netlist))
        mode = "bennett"
    report = _base_report(args)
    if args.out:
        _save(save_circuit, compiled.circuit, args.out)
    report.update(
        mode=mode,
        width=compiled.circuit.width,
        gate_count=compiled.circuit.gate_count(),
        input_lines=list(compiled.input_lines),
        result_lines=list(compiled.result_lines),
        ancilla_lines=list(compiled.ancilla_lines),
        helper_lines=list(compiled.helper_lines),
        out=args.out,
    )
    return report


def _cmd_simulate(args) -> dict:
    circuit = _load(load_circuit, args.circuit)
    bits = BitString(args.input)
    report = _base_report(args)
    if args.trajectory:
        traj = simulate_trajectory(circuit, bits)
        report["trajectory"] = [str(s) for s in traj]
        report["output"] = str(traj[-1])
    else:
        report["output"] = str(simulate(circuit, bits))
    return report


def _cmd_compress(args) -> dict | None:
    codec = REGISTRY[args.codec]
    helper = _load(_read_bits, args.helper_file) if args.helper_file else BitString()
    data = BitString("".join(sys.stdin.read().split()))
    if args.decompress:
        print(codec.decompress(data, helper))
    else:
        print(codec.compress(data, helper))
    return None


def _cmd_bounds(args) -> dict:
    S = _load(_read_bits, args.s_file)
    X = _load(_read_bits, args.x_file) if args.x_file else BitString()
    codec = REGISTRY[args.codec]
    report = _base_report(args)
    report["len_s"] = len(S)
    reports = (wv_report(S, X, codec), erasure_cost_interval(S, X, codec))
    report["quantities"] = [r.to_dict(args.temperature) for r in reports]
    return report


def _cmd_demon(args) -> dict:
    S = _load(_read_bits, args.s_file)
    X = _load(_read_bits, args.x_file) if args.x_file else BitString()
    codec = REGISTRY[args.codec]
    if args.scenario == "extract":
        result = run_extract(S, X, codec)
    elif args.scenario == "extract-erase":
        result = run_extract_then_erase(S, X, codec)
    elif args.scenario == "erase-extract":
        result = run_erase_then_extract(S, X, codec)
    else:  # xor-copy
        if args.generator:
            generator = _load(load_netlist, args.generator)
        elif len(X):
            generator = rom_circuit(S, len(X))
        else:
            raise GeneratorMismatch("xor-copy needs --generator or a non-empty X")
        result = run_xor_copy_extract(S, X, generator)
    report = _base_report(args)
    report.update(
        scenario=result.scenario,
        len_s=len(S),
        wv_bits=result.wv_bits,
        ec_bits=result.ec_bits,
        ledger=[{"label": label, "bits": _frac(bits)} for label, bits in result.ledger.entries],
        ledger_total_bits=_frac(result.ledger.total_bits()),
        ledger_total_joules=to_joules(result.ledger.total_bits(), args.temperature),
        final_tape_digest=result.final_tape.digest(),
        replay_ok=replay_backward(result) == result.initial_tape,
        transcript=[type(step).__name__ for step in result.transcript],
    )
    if result.scenario == "extract":
        # the code (and wv may be negative) stays on the tape; conservation
        # concerns the erased combinations
        report["residual_code_bits"] = len(S) - result.wv_bits
    else:
        report["conservation_ok"] = result.wv_bits + result.ec_bits == len(S)
    return report


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None


def _cmd_clausius(args) -> dict:
    report_data = clausius_experiment(
        n=args.n,
        w=_fraction("--w", args.w),
        delta=_fraction("--delta", args.delta),
        circuits=args.circuits,
        seed=args.seed,
        gate_count=args.gate_count,
    )
    report = _base_report(args)
    report.update(
        n=report_data.n,
        w=_frac(report_data.w),
        delta=_frac(report_data.delta),
        gate_count=report_data.gate_count,
        ceiling=_frac(report_data.point_ceiling),  # exact target class only
        tail_ceiling=_frac(report_data.tail_ceiling),  # target or more extreme
        max_fraction=_frac(report_data.max_point_fraction),
        max_tail_fraction=_frac(report_data.max_tail_fraction),
        within_ceiling=report_data.within_ceiling,
        per_n_trend=[
            {"n": m, "log2_ceiling": value} for m, value in report_data.per_n_trend
        ],
    )
    return report


def _cmd_prbox(args) -> dict:
    q = generate_pr_quadruple(args.n, args.seed)
    data = pr_report(q)
    report = _base_report(args)
    report.update(
        n=data.n,
        pr_condition=data.pr_condition,
        rates={
            "a": _frac(data.rate_a),
            "b": _frac(data.rate_b),
            "x": _frac(data.rate_x),
            "y": _frac(data.rate_y),
            "ab_joint": _frac(data.rate_ab_joint),
        },
        no_signaling={
            "x_gap": _frac(data.no_signaling_gap_x),
            "y_gap": _frac(data.no_signaling_gap_y),
        },
        outputs_conditioned={
            "x_given_a": _frac(data.rate_x_given_a),
            "y_given_b": _frac(data.rate_y_given_b),
        },
        caveat=data.caveat,
    )
    return report


# --- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--temperature", type=float, default=DEFAULT_TEMPERATURE)

    parser = argparse.ArgumentParser(
        prog="landauer",
        description="Reversible computation, compression with helper, and "
        "free-energy accounting in kT ln2 units.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[common], help="netlist -> reversible circuit")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--netlist", help="netlist JSON file to compile")
    kind.add_argument("--fig1", action="store_true", help="build the in-place block compressor")
    p.add_argument("--codec", choices=sorted(REGISTRY), default="lz78")
    p.add_argument("--block", type=int, default=8)
    p.add_argument("--helper", default="", help="helper bits for --fig1")
    p.add_argument("--out", help="write circuit JSON here")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", parents=[common], help="run a circuit on an input")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="full-width bit string")
    p.add_argument("--trajectory", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    for name, decomp in (("compress", False), ("decompress", True)):
        p = sub.add_parser(name, parents=[common], help=f"{name} stdin -> stdout")
        p.add_argument("--codec", choices=sorted(REGISTRY), required=True)
        p.add_argument("--helper-file")
        p.set_defaults(func=_cmd_compress, decompress=decomp)

    p = sub.add_parser("bounds", parents=[common], help="work-value / erasure-cost bounds")
    p.add_argument("--s-file", required=True)
    p.add_argument("--x-file")
    p.add_argument("--codec", choices=sorted(REGISTRY), default="lz78")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("demon", parents=[common], help="run a tape scenario")
    p.add_argument(
        "--scenario",
        choices=("extract", "xor-copy", "extract-erase", "erase-extract"),
        required=True,
    )
    p.add_argument("--s-file", required=True)
    p.add_argument("--x-file")
    p.add_argument("--codec", choices=sorted(REGISTRY), default="lz78")
    p.add_argument("--generator", help="netlist producing S from X (xor-copy)")
    p.set_defaults(func=_cmd_demon)

    p = sub.add_parser("clausius", parents=[common], help="imbalance-growth experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", default="1/2", help="fraction, e.g. 1/2")
    p.add_argument("--delta", required=True, help="fraction, e.g. 1/6")
    p.add_argument("--circuits", type=int, default=100)
    p.add_argument("--gate-count", type=int)
    p.set_defaults(func=_cmd_clausius)

    p = sub.add_parser("prbox", parents=[common], help="box-condition correlation report")
    p.add_argument("--n", type=int, default=4096)
    p.set_defaults(func=_cmd_prbox)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (LandauerError, ValueError, MemoryError) as exc:
        error = {
            "tool_version": __version__,
            "error": {"type": type(exc).__name__, "message": str(exc) or type(exc).__doc__},
        }
        print(json.dumps(error, indent=2, sort_keys=True))
        return 1
    if report is not None:
        _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
