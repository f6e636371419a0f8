"""Compilation of irreversible circuits into ancilla-clean reversible ones,
and the reversible compression-with-helper construction.

bennett_compile uses the classic three-stage uncomputation layout: compute
every source gate into its own fresh zero line (the "junk"), copy the
declared outputs onto fresh zero lines with CNOTs, then replay the forward
stage in reverse so every junk line returns to zero.  The compiled map is
(x, 0^junk, 0^out) -> (x, 0^junk, f(x)) and agrees with the source
semantics on every input.

build_fig1_compressor realizes, on the data register itself, the injective
block map

    S  ->  code(S, helper) zero-padded,

where code is the mode-bit block encoding of compress.encode_with_escape
(compressed branch when the self-delimited codec output fits the block,
raw escape otherwise).  The register is block+1 lines wide: the extra line
absorbs the mode bit, which is what makes the padded map a bijection.

Synthesis strategy: the block map, extended to a permutation of the
register cube by matching leftover points to their mode-flipped partners,
differs from the bare mode-bit flip only where the codec actually
compresses.  That sparse residue is decomposed into transpositions of
basis states, each realized exactly as a CNOT/NOT-conjugated
multi-controlled flip built from Toffoli gates over a small bank of
reusable zero ancillas.  Gate count therefore scales with the number of
compressible blocks, not with 2^block, and the whole line set stays small
enough for exhaustive bijectivity sweeps.  The helper is baked into the
encoding table and carried on inert HELPER lines, unchanged by every gate.

The build and fig1_block_oracle read one checked block table: one text
pass of compress.block_codes runs the kernels on each of the 2^block blocks
once, and the codes, zero-padded to block+1 bits, are checked for a
collision.  The oracle wraps these texts; the build reads them as line
masks (_to_mask).  Only the last table is cached: a build is verified
right after it, and consecutive builds seldom share (codec, block,
helper), so more entries would only keep dead tables alive.  Verifying
against that table is still not circular: it is the codec's encoding,
not the gate list, and the tests check the registers against an
encoding rebuilt from the codec alone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from .bitstring import BitString, _trusted
from .circuits import (
    ANCILLA_ZERO,
    CONST_ONE,
    HELPER,
    INPUT,
    OUTPUT_ALIAS,
    Gate,
    ReversibleCircuit,
    _to_mask,
    check_sweep,
    cnot,
    cube_rows,
    not_gate,
    run_states,
    simulate,
    toffoli,
)
from .compress import CompressionCodec, block_codes
from .errors import CodecNotInjective, LandauerError, WidthMismatch
from .irrev import AND, NOT, OR, XOR, IrreversibleCircuit


# CompiledReversible's line sets, each read from the lines of one role
_LINE_SETS = (
    ("input_lines", INPUT),
    ("output_lines", OUTPUT_ALIAS),
    ("helper_lines", HELPER),
    ("ancilla_lines", ANCILLA_ZERO),
    ("const_one_lines", CONST_ONE),
)


@dataclass(frozen=True)
class CompiledReversible:
    """A reversible circuit, its result register and its helper value
    (empty when the circuit has no helper lines).

    The circuit's line roles are its only line map: input_lines,
    output_lines, helper_lines, ancilla_lines and const_one_lines hold the
    ascending lines of each role, read once at construction.  result_lines
    is a view, not a role: the register holding the logical result (the
    output lines unless given), which for in-place constructions overlaps
    the input lines.
    """

    circuit: ReversibleCircuit
    result_lines: tuple[int, ...] = ()
    helper_value: BitString = BitString()

    def __post_init__(self):
        lines: dict[str, list[int]] = {role: [] for _, role in _LINE_SETS}
        for i, role in enumerate(self.circuit.line_roles):
            lines[role].append(i)
        for name, role in _LINE_SETS:
            object.__setattr__(self, name, tuple(lines[role]))
        if len(self.helper_value) != len(self.helper_lines):
            raise WidthMismatch(
                f"helper value has {len(self.helper_value)} bits for {len(self.helper_lines)} helper lines"
            )
        if not self.result_lines:
            object.__setattr__(self, "result_lines", self.output_lines)

    def assemble_input(self, data: BitString) -> BitString:
        if len(data) != len(self.input_lines):
            raise WidthMismatch(
                f"expected {len(self.input_lines)} data bits, got {len(data)}"
            )
        cells = ["0"] * self.circuit.width
        for bit, line in zip(data, self.input_lines):
            cells[line] = "1" if bit else "0"
        for bit, line in zip(self.helper_value, self.helper_lines):
            cells[line] = "1" if bit else "0"
        for line in self.const_one_lines:
            cells[line] = "1"
        return BitString("".join(cells))

    def run(self, data: BitString) -> BitString:
        """Simulate on `data` (helper and constant lines filled in); returns
        the full final state."""
        return simulate(self.circuit, self.assemble_input(data))

    def pick(self, state: BitString, lines: Sequence[int]) -> BitString:
        return BitString(state[i] for i in lines)

    def result(self, state: BitString) -> BitString:
        return self.pick(state, self.result_lines)


# --- Bennett compiler -----------------------------------------------------------


def bennett_compile(src: IrreversibleCircuit) -> CompiledReversible:
    """Compile a netlist into an ancilla-clean reversible circuit.

    One zero work line per source gate; outputs are CNOT-copied to fresh
    zero lines; the forward stage is then replayed in reverse, restoring
    every work line.  The circuit has inputs + gates + outputs lines.

    The circuit F.C.F^-1 is its own inverse, which the xor-copy demon
    relies on to uncompute its copy: run twice it is F.C.(F^-1.F).C.F^-1
    = F.C.C.F^-1, and C.C is the identity because the copy CNOTs target
    distinct output lines that none of them reads.
    """
    k, g, m = len(src.inputs), len(src.gates), len(src.outputs)

    # A node's index in the netlist is its line: inputs on 0..k-1, then gate j on k+j.
    forward: list[Gate] = []
    for t, (op, a, b) in enumerate(src.steps, start=k):
        if op == NOT:
            forward += [cnot(a, t), not_gate(t)]
        elif a == b:
            # degenerate two-arg gates: and/or collapse to a wire, xor to 0
            if op in (AND, OR):
                forward.append(cnot(a, t))
        elif op == AND:
            forward.append(toffoli(a, b, t))
        elif op == XOR:
            forward += [cnot(a, t), cnot(b, t)]
        else:  # or: a + b + ab mod 2
            forward += [cnot(a, t), cnot(b, t), toffoli(a, b, t)]

    copies = [cnot(line, k + g + i) for i, line in enumerate(src.output_nodes)]
    gates = tuple(forward) + tuple(copies) + tuple(reversed(forward))

    roles = (INPUT,) * k + (ANCILLA_ZERO,) * g + (OUTPUT_ALIAS,) * m
    return CompiledReversible(ReversibleCircuit(k + g + m, gates, roles))


# --- sparse permutation synthesis on a register ----------------------------------


def _transposition_gates(u: int, v: int, register: Sequence[int], chain: Sequence[int]) -> list[Gate]:
    """Exact swap of two distinct basis states u and v of the register lines.

    Conjugates a multi-controlled flip by CNOTs (folding the differing
    bits onto one pivot line) and NOTs (turning the off-pivot pattern into
    all-ones).  Every other basis state is left fixed; the chain ancillas
    are zero before and after.  A register of r > 3 lines needs r - 3 of
    them, which is what build_fig1_compressor allocates.
    """
    diff = u ^ v
    p = (diff & -diff).bit_length() - 1  # pivot: lowest differing line
    lo = u if not (u >> p) & 1 else v  # the one with pivot bit 0

    wrap: list[Gate] = []
    for i in register:
        if i != p and (diff >> i) & 1:
            wrap.append(cnot(p, i))
    sandwich = [not_gate(i) for i in register if i != p and not (lo >> i) & 1]
    controls = [i for i in register if i != p]

    core: list[Gate] = []
    if len(controls) == 1:
        core = [cnot(controls[0], p)]
    elif len(controls) == 2:
        core = [toffoli(controls[0], controls[1], p)]
    else:
        need = len(controls) - 2
        up = [toffoli(controls[0], controls[1], chain[0])]
        for idx in range(need - 1):
            up.append(toffoli(chain[idx], controls[2 + idx], chain[idx + 1]))
        core = up + [toffoli(chain[need - 1], controls[-1], p)] + list(reversed(up))

    return wrap + sandwich + core + list(reversed(sandwich)) + list(reversed(wrap))


def _cycles(perm: dict[int, int]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        out.append(cyc)
    return out


def build_fig1_compressor(
    codec: CompressionCodec, block: int, helper: BitString
) -> CompiledReversible:
    """Reversible in-place block compression with helper.

    The returned circuit maps, on its block+1-line data register,

        spare-0 || data(S)   ->   code(S, helper) || zero padding,

    with the helper carried unchanged on inert lines and all chain
    ancillas restored to zero.  The map restricted to the register is a
    bijection of the whole register cube, so the full-line map is
    injective by construction and can be swept exhaustively.

    Raises CodecNotInjective when the codec fails the round trip on the
    block domain.  The build enumerates the register cube, so a register
    of block+1 lines above the sweep ceiling raises DomainTooLarge before
    any codec call.
    """
    # The data sits on lines 1..block and line 0 takes the mode bit, so the
    # raw branch is a bare flip of line 0.
    codes = _fig1_codes(codec, block, helper)
    table = {_to_mask(format(v, f"0{block}b")) << 1: _to_mask(code) for v, code in enumerate(codes)}
    used = set(table.values())
    reg_width = block + 1

    # Extend to a permutation: leftover points prefer their mode-flipped
    # partner, which makes the residue permutation sparse.
    deferred: list[int] = []
    for v in range(1 << reg_width):
        if v in table:
            continue
        pref = v ^ 1
        if pref not in used:
            table[v] = pref
            used.add(pref)
        else:
            deferred.append(v)
    leftover_images = sorted(set(range(1 << reg_width)) - used)
    for v, img in zip(deferred, leftover_images):
        table[v] = img

    sigma = {x: y ^ 1 for x, y in table.items()}  # the final flip of line 0 absorbs the raw branch
    moved = {x for x, y in sigma.items() if y != x}

    register = tuple(range(reg_width))
    chain_count = max(0, reg_width - 3) if moved else 0
    chain = tuple(range(reg_width, reg_width + chain_count))

    gates: list[Gate] = []
    for cyc in _cycles(sigma):
        anchor = cyc[0]
        for other in cyc[1:]:
            gates += _transposition_gates(anchor, other, register, chain)
    gates.append(not_gate(0))

    roles = [OUTPUT_ALIAS] + [INPUT] * block + [ANCILLA_ZERO] * chain_count + [HELPER] * len(helper)
    circuit = ReversibleCircuit(
        reg_width + chain_count + len(helper), tuple(gates), tuple(roles)
    )
    return CompiledReversible(circuit, result_lines=register, helper_value=helper)


def fig1_block_oracle(
    codec: CompressionCodec, block: int, helper: BitString
) -> Callable[[BitString], BitString]:
    """Reference map the built circuit must equal on its data register:
    data -> code(data, helper) zero-padded to block+1 bits.

    The codes come from the same checked block table as the build, fetched
    once here, so a build and its verification run the codec over the
    block domain once; the oracle is then a lookup.  Verification stays
    independent of the builder all the same: the table is the codec's
    escape encoding, not the synthesized gates, and the tests rebuild
    the expected register without either.  Raises WidthMismatch for data
    of any length but `block`, and what the build raises for the table.
    """
    codes = [_trusted(code) for code in _fig1_codes(codec, block, helper)]

    def oracle(data: BitString) -> BitString:
        if len(data) != block:
            raise WidthMismatch(f"expected {block} data bits, got {len(data)}")
        return codes[data.to_int()]

    return oracle


def _fig1_codes(codec: CompressionCodec, block: int, helper: BitString) -> tuple[str, ...]:
    """The checked block table of a Fig. 1 compressor: the escape code of
    each data value, in value order, as text zero-padded to block+1 bits.

    Too small a block, or a register above the sweep ceiling, is refused
    on every call before the cache and before any codec call.
    """
    if block < 1:
        raise LandauerError("block must be at least 1")
    check_sweep(f"a block register of {block + 1} lines", lines=block + 1)
    return _fig1_table(codec, block, helper)


@functools.lru_cache(maxsize=1)
def _fig1_table(codec: CompressionCodec, block: int, helper: BitString) -> tuple[str, ...]:
    # One entry is the whole reuse: a build and then its oracle (see the
    # module docstring).  lru_cache stores no exception, so a codec that
    # fails the checks fails on every call.  A pure codec never trips the
    # collision check (block_codes round-trips each block, and escape codes
    # are prefix-free); it stays because an impure kernel or a patched block
    # pass would otherwise hang build_fig1_compressor in _cycles.
    codes = tuple(code.ljust(block + 1, "0") for code in block_codes(codec, block, helper))
    seen: set[str] = set()
    for v, code in enumerate(codes):
        if code in seen:
            raise CodecNotInjective(f"{codec.name} block encoding collides at {format(v, f'0{block}b')}")
        seen.add(code)
    return codes


# --- verification sweeps ----------------------------------------------------------


# verify_compiled records at most this many mismatches and violations
_KEEP = 16


@dataclass(frozen=True)
class VerificationReport:
    swept: int
    mismatches: tuple = ()
    ancilla_violations: tuple = ()
    # every gate is an involution, so distinct input states have distinct images
    injective_on_domain: ClassVar[bool] = True

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.ancilla_violations


def verify_compiled(
    compiled: CompiledReversible, oracle: Callable[[BitString], BitString]
) -> VerificationReport:
    """Exhaustively compare a compiled circuit against a reference map.

    Sweeps the whole input register as one batch, checking result equality,
    ancilla restoration (ancilla lines back to 0, const lines still 1,
    helper lines untouched).  At most 16 offending cases of each kind are
    recorded, in input order.  The inputs and the results are each
    rendered to text in one pass over their rows; the oracle is then
    called once per input x, in order, on BitString.from_int(x, k).
    """
    k = len(compiled.input_lines)
    check_sweep(f"an input register of {k} lines", lines=k)
    c = compiled.circuit
    count = 1 << k
    ones = (1 << count) - 1
    rows = [ones if bit else 0 for bit in compiled.assemble_input(BitString.zeros(k))]
    # Input x is BitString.from_int(x, k): data line j carries bit k-1-j of x.
    for line, row in zip(reversed(compiled.input_lines), cube_rows(k)):
        rows[line] = row
    out = run_states(c, rows, count)

    inputs = _render([rows[i] for i in compiled.input_lines], count)
    mismatches = []
    for text, got in zip(inputs, _render([out[i] for i in compiled.result_lines], count)):
        data = _trusted(text)
        want = oracle(data)
        if got != str(want) and len(mismatches) < _KEEP:
            mismatches.append((data, _trusted(got), want))

    checks = [(out[i], i, "ancilla not restored") for i in compiled.ancilla_lines]
    checks += [(ones ^ out[i], i, "constant line flipped") for i in compiled.const_one_lines]
    if compiled.helper_lines:
        changed = functools.reduce(operator.or_, (out[i] ^ rows[i] for i in compiled.helper_lines))
        checks.append((changed, compiled.helper_lines[0], "helper changed"))
    bad = functools.reduce(operator.or_, (row for row, _, _ in checks), 0)
    violations = []
    while bad and len(violations) < _KEEP:  # input order, then check order
        x = bad & -bad
        bad ^= x
        violations += [(_trusted(inputs[x.bit_length() - 1]), i, what) for row, i, what in checks if row & x]
    return VerificationReport(count, tuple(mismatches), tuple(violations[:_KEEP]))


def _render(rows: list[int], count: int) -> list[str]:
    """The first `count` states of run_states rows as '0'/'1' text, line i
    of a state being character i: each row is written into every
    width-th byte of one buffer, then decoded once."""
    width = len(rows)
    if not width:  # no lines: every state is the empty string (a 0 slice step would raise)
        return [""] * count
    buf = bytearray(count * width)
    for i, row in enumerate(rows):
        buf[i::width] = format(row, f"0{count}b")[::-1].encode()
    text = buf.decode()
    return [text[i : i + width] for i in range(0, len(text), width)]
