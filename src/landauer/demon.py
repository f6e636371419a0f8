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
mode bit into the zero region and the scenario's work value is then -1.  The conservation law
wv + ec = len(S) holds exactly in every case.  Full scenarios
(extract-then-erase, erase-then-extract, xor-copy) end with the zero
region entirely zero; a bare extraction documents its code footprint
instead.

Every scenario returns a transcript of invertible steps; replaying the
transcript backward from the final tape restores the initial tape
bit-exactly (erase steps record what they removed, which is the
information handed to the environment).  The xor-copy demon's Bennett
circuit is an involution, so it uncomputes its copy by running the
circuit that made it a second time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Union

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


@dataclass(frozen=True)
class BlockEncodeStep:
    """In-place rewrite of S into its block encoding (spill bit into the
    zero region when the encoding needs len(S)+1 bits)."""

    codec: CompressionCodec

    def apply(self, tape: Tape) -> Tape:
        n = len(tape.s_region)
        coded = encode_with_escape(self.codec, tape.s_region, tape.x_region)
        padded = coded + BitString.zeros(n + 1 - len(coded))
        return replace(
            tape,
            s_region=padded[:n],
            zero_region=padded[n:] + tape.zero_region[1:],
        )

    def invert(self, tape: Tape) -> Tape:
        n = len(tape.s_region)
        coded = tape.s_region + tape.zero_region[:1]
        data = decode_with_escape(self.codec, coded, n, tape.x_region)
        return replace(
            tape,
            s_region=data,
            zero_region=BitString.zeros(1) + tape.zero_region[1:],
        )


@dataclass(frozen=True)
class EraseStep:
    """Reset the recorded bits to zero; the record is what the environment
    absorbed, and is exactly what backward replay restores."""

    erased_s: BitString
    erased_spill: BitString  # "" or the single spill bit

    def apply(self, tape: Tape) -> Tape:
        zero = tape.zero_region
        if len(self.erased_spill):
            zero = BitString.zeros(1) + zero[1:]
        return replace(tape, s_region=BitString.zeros(len(self.erased_s)), zero_region=zero)

    def invert(self, tape: Tape) -> Tape:
        zero = tape.zero_region
        if len(self.erased_spill):
            zero = self.erased_spill + zero[1:]
        return replace(tape, s_region=self.erased_s, zero_region=zero)


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


def _fresh_tape(S: BitString, X: BitString, history_bits: int = 0) -> Tape:
    return Tape(S, X, BitString.zeros(1), BitString.zeros(history_bits))


def _check_catalyst(initial: Tape, final: Tape) -> None:
    if initial.x_region != final.x_region:
        raise InvariantViolated("catalyst X changed during a scenario")


def _check_clean(tape: Tape, *regions: str) -> None:
    """The named tape regions must end all zero."""
    for region in regions:
        if getattr(tape, region).weight():
            raise InvariantViolated(f"{region} not zero at the end of the scenario")


def run_extract(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Reversibly compress S in place, crediting the freed zeros (in bits).

    wv_bits = len(S) - len(code); negative exactly when the encoding
    spills its mode bit (incompressible S).  The code, including any
    spill bit, stays on the tape.
    """
    tape0 = _fresh_tape(S, X)
    step = BlockEncodeStep(codec)
    tape1 = step.apply(tape0)
    code_len = len(encode_with_escape(codec, S, X))
    wv = len(S) - code_len
    ledger = EnergyLedger()
    ledger.credit("extract:zeros", wv)
    _check_catalyst(tape0, tape1)
    return ScenarioResult("extract", ledger, tape0, tape1, wv, 0, (step,))


def run_extract_then_erase(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Extract work from S, then erase the residual code at one bit per bit.

    wv_bits + ec_bits = len(S) exactly; the ledger holds both phases in bits.
    """
    tape0 = _fresh_tape(S, X)
    encode = BlockEncodeStep(codec)
    tape1 = encode.apply(tape0)
    code_len = len(encode_with_escape(codec, S, X))
    erase = EraseStep(erased_s=tape1.s_region, erased_spill=tape1.zero_region[:1] if code_len > len(S) else BitString())
    tape2 = erase.apply(tape1)
    wv = len(S) - code_len
    ledger = EnergyLedger()
    ledger.credit("extract:zeros", wv)
    ledger.debit("erase:code", code_len)
    _check_catalyst(tape0, tape2)
    _check_clean(tape2, "zero_region", "s_region")
    return ScenarioResult(
        "extract-erase", ledger, tape0, tape2, wv, code_len, (encode, erase)
    )


def run_erase_then_extract(S: BitString, X: BitString, codec: CompressionCodec) -> ScenarioResult:
    """Erase S first (cost: its coded length), then use the zeros as fuel.

    Of the len(S) freed zeros, the erasure debit claims code-length many;
    the reported work value is the net len(S) - ec_bits.  Totals match
    extract-then-erase with the ledger entries, in bits, in swapped order.
    """
    tape0 = _fresh_tape(S, X)
    code_len = len(encode_with_escape(codec, S, X))
    erase = EraseStep(erased_s=S, erased_spill=BitString())
    tape1 = erase.apply(tape0)
    wv = len(S) - code_len
    ledger = EnergyLedger()
    ledger.debit("erase:code", code_len)
    ledger.credit("extract:zeros", wv)
    _check_catalyst(tape0, tape1)
    _check_clean(tape1, "zero_region", "s_region")
    return ScenarioResult(
        "erase-extract", ledger, tape0, tape1, wv, code_len, (erase,)
    )


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
    out = len(compiled.output_lines)
    tape0 = _fresh_tape(S, X, history_bits=work + out)

    compute = CircuitStep(compiled.circuit)
    xor_in = XorRegionStep(start=work)
    tape1 = compute.apply(tape0)
    tape2 = xor_in.apply(tape1)
    tape3 = compute.apply(tape2)  # the same circuit again uncomputes the copy

    ledger = EnergyLedger()
    ledger.credit("extract:xor_copy", len(S))
    _check_catalyst(tape0, tape3)
    _check_clean(tape3, "history_region", "s_region")
    return ScenarioResult(
        "xor-copy", ledger, tape0, tape3, len(S), 0, (compute, xor_in, compute)
    )
