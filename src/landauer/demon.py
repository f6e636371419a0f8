"""Tape-level scenarios: work extraction, erasure, and the XOR-copy demon.

The tape holds the working string S, the side-information string X (a
catalyst: bit-identical before and after every scenario), a zero region,
and a history region for reversible intermediate state.  Scenarios run at
the thermodynamic bound: erasing one residual bit costs exactly one bit
unit, extraction credits exactly the freed zeros, and no device
inefficiencies are modeled.  Ledger entries are per phase and in bits (no
scenario takes a temperature: the CLI converts the ledger total to joules
at its --temperature); scenarios never interleave work-producing moves
into an erasure phase.

Extraction rewrites S in place into its mode-bit block encoding (see
compress.encode_with_escape; the raw escape is always on).  Because 2^n
strings cannot be packed injectively into n bits with room to spare, an
incompressible S costs one bit of overhead: the encoding spills a single
mode bit into the zero region and the scenario's work value is then -1.
The conservation law wv + ec = len(S) holds exactly in every case.  Full
scenarios (extract-then-erase, erase-then-extract, xor-copy) end with the
zero region entirely zero; a bare extraction documents its code footprint
instead.

Each scenario is its list of steps, which one runner applies to the fresh
tape (S, X, one zero cell, a zero history): it checks that X is unchanged
and that the regions the scenario clears end all zero, books the ledger
entries in order, and keeps the steps as the transcript.  Replaying the
transcript backward from the final tape restores the initial tape
bit-exactly.  An erase step records the len(S)+1 bits of S and the spill
cell that it removes (the information handed to the environment): S's
block encoding zero-padded after extraction, S and a zero before it.  The
xor-copy demon's Bennett circuit is an involution, so it uncomputes its
copy by running the circuit that made it a second time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Union

from .bitstring import BitString
from .compress import CompressionCodec, decode_with_escape, encode_with_escape
from .errors import GeneratorMismatch, InvariantViolated
from .irrev import IrreversibleCircuit, evaluate
from .synth import bennett_compile
from .thermo import EnergyLedger
from .circuits import ReversibleCircuit, simulate


@dataclass(frozen=True)
class Tape:
    s_region: BitString
    x_region: BitString
    zero_region: BitString
    history_region: BitString = BitString()

    def digest(self) -> str:
        text = "|".join(
            str(r) for r in (self.s_region, self.x_region, self.zero_region, self.history_region)
        )
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def _pad(coded: BitString, n: int) -> BitString:
    """A block code of n bits of S zero-padded to n+1 bits: S's cells, then the spill cell."""
    return coded + BitString.zeros(n + 1 - len(coded))


@dataclass(frozen=True)
class BlockEncodeStep:
    """In-place rewrite of S into its block encoding (spill bit into the
    zero region when the encoding needs len(S)+1 bits)."""

    codec: CompressionCodec

    def apply(self, tape: Tape) -> Tape:
        n = len(tape.s_region)
        padded = _pad(encode_with_escape(self.codec, tape.s_region, tape.x_region), n)
        return replace(tape, s_region=padded[:n], zero_region=padded[n:] + tape.zero_region[1:])

    def invert(self, tape: Tape) -> Tape:
        n = len(tape.s_region)
        data = decode_with_escape(self.codec, tape.s_region + tape.zero_region[:1], n, tape.x_region)
        return replace(tape, s_region=data, zero_region=BitString.zeros(1) + tape.zero_region[1:])


@dataclass(frozen=True)
class EraseStep:
    """Reset S and the spill cell to zero.  The record `erased` holds their
    len(S)+1 bits, S's cells then the spill cell: what the environment
    absorbed, and exactly what backward replay restores."""

    erased: BitString

    def apply(self, tape: Tape) -> Tape:
        n = len(self.erased) - 1
        return replace(tape, s_region=BitString.zeros(n), zero_region=BitString.zeros(1) + tape.zero_region[1:])

    def invert(self, tape: Tape) -> Tape:
        n = len(self.erased) - 1
        return replace(tape, s_region=self.erased[:n], zero_region=self.erased[n:] + tape.zero_region[1:])


@dataclass(frozen=True)
class CircuitStep:
    """Run a reversible circuit across x_region ++ history_region; its own
    inverse, as the circuit is a Bennett circuit F.C.F^-1, an involution
    (see synth.bennett_compile)."""

    circuit: ReversibleCircuit

    def apply(self, tape: Tape) -> Tape:
        k = len(tape.x_region)
        state = simulate(self.circuit, tape.x_region + tape.history_region)
        return replace(tape, x_region=state[:k], history_region=state[k:])

    invert = apply


@dataclass(frozen=True)
class XorRegionStep:
    """s_region ^= history[start : start+len(s)]; its own inverse."""

    start: int

    def apply(self, tape: Tape) -> Tape:
        n = len(tape.s_region)
        window = tape.history_region[self.start : self.start + n]
        return replace(tape, s_region=tape.s_region.xor(window))

    invert = apply


Step = Union[BlockEncodeStep, EraseStep, CircuitStep, XorRegionStep]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    ledger: EnergyLedger
    initial_tape: Tape
    final_tape: Tape
    wv_bits: int
    ec_bits: int
    transcript: tuple[Step, ...]


def replay_backward(result: ScenarioResult) -> Tape:
    """Invert the transcript from the final tape; must equal the initial tape."""
    tape = result.final_tape
    for step in reversed(result.transcript):
        tape = step.invert(tape)
    return tape


def _run(
    scenario: str, S: BitString, X: BitString, steps: tuple[Step, ...], entries: tuple[tuple[Callable, str, int], ...],
    wv: int, ec: int, clears: tuple[str, ...] = (), history_bits: int = 0,
) -> ScenarioResult:
    """Apply the steps in order to the fresh tape (S, X, one zero cell, a
    zero history of history_bits), check that X is unchanged and that each
    region in `clears` ends all zero, and book the ledger entries, each an
    EnergyLedger.credit or .debit with its label and bits, in order."""
    tape = initial = Tape(S, X, BitString.zeros(1), BitString.zeros(history_bits))
    for step in steps:
        tape = step.apply(tape)
    if tape.x_region != X:
        raise InvariantViolated("catalyst X changed during a scenario")
    for region in clears:
        if getattr(tape, region).weight():
            raise InvariantViolated(f"{region} not zero at the end of the scenario")
    ledger = EnergyLedger()
    for book, label, bits in entries:
        book(ledger, label, bits)
    return ScenarioResult(scenario, ledger, initial, tape, wv, ec, steps)


def run_extract(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Reversibly compress S in place, crediting the freed zeros (in bits).

    wv_bits = len(S) - len(code); negative exactly when the encoding
    spills its mode bit (incompressible S).  The code, including any
    spill bit, stays on the tape.
    """
    wv = len(S) - len(encode_with_escape(codec, S, X))
    credit = (EnergyLedger.credit, "extract:zeros", wv)
    return _run("extract", S, X, (BlockEncodeStep(codec),), (credit,), wv, 0)


def run_extract_then_erase(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Extract work from S, then erase the residual code at one bit per bit.

    wv_bits + ec_bits = len(S) exactly; the ledger holds both phases in bits.
    """
    coded = encode_with_escape(codec, S, X)
    wv = len(S) - len(coded)
    steps = (BlockEncodeStep(codec), EraseStep(_pad(coded, len(S))))
    entries = ((EnergyLedger.credit, "extract:zeros", wv), (EnergyLedger.debit, "erase:code", len(coded)))
    return _run("extract-erase", S, X, steps, entries, wv, len(coded), clears=("zero_region", "s_region"))


def run_erase_then_extract(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Erase S first (cost: its coded length), then use the zeros as fuel.

    Of the len(S) freed zeros, the erasure debit claims code-length many;
    the reported work value is the net len(S) - ec_bits.  Totals match
    extract-then-erase with the ledger entries, in bits, in swapped order.
    """
    code_len = len(encode_with_escape(codec, S, X))
    wv = len(S) - code_len
    entries = ((EnergyLedger.debit, "erase:code", code_len), (EnergyLedger.credit, "extract:zeros", wv))
    erase = EraseStep(S + BitString.zeros(1))
    return _run("erase-extract", S, X, (erase,), entries, wv, code_len, clears=("zero_region", "s_region"))


def run_xor_copy_extract(S: BitString, X: BitString, generator: IrreversibleCircuit) -> ScenarioResult:
    """Full-value extraction when X programs a copy of S.

    Compiles the generator, runs its Bennett circuit to copy S into
    history (the work lines end zero again), XORs the copy into S
    producing 0^len(S), then runs the same circuit again, which uncomputes
    the copy so history returns to zero.  wv_bits = len(S) exactly, the
    one ledger credit, in bits.
    """
    if evaluate(generator, X) != S:
        raise GeneratorMismatch("generator(X) does not produce S")
    compiled = bennett_compile(generator)
    work = len(compiled.ancilla_lines)
    compute = CircuitStep(compiled.circuit)
    steps = (compute, XorRegionStep(start=work), compute)  # the same circuit again uncomputes the copy
    credit = (EnergyLedger.credit, "extract:xor_copy", len(S))
    return _run(
        "xor-copy", S, X, steps, (credit,), len(S), 0,
        clears=("history_region", "s_region"), history_bits=work + len(compiled.output_lines),
    )
