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
compresses.  The build computes only that sparse residue, from the
compressed blocks alone, and decomposes it into transpositions of basis
states, each realized exactly as a CNOT/NOT-conjugated multi-controlled
flip built from Toffoli gates over a small bank of reusable zero
ancillas.  Gate count and the build's own work therefore scale with the
number of compressible blocks, not with 2^block (the block pass still
decompresses all 2^block blocks, and the checks sweep the register),
and the whole line set stays small enough for exhaustive
bijectivity sweeps.  The helper is baked into the encoding table and
carried on inert HELPER lines, unchanged by every gate.

The build and fig1_block_oracle read one checked block table: one pass of
compress.block_codes (one compress call for lz78 and xor, one decompress
per block), whose codes, zero-padded to block+1 bits, are checked for a
collision.  The build reads the codes as line masks (_to_mask); the
oracle is a BlockTable of their text, which verify_compiled reads as one
int row per result line in place of 2^block lookups.  Only the last
table is cached: a build is verified right after it, and consecutive
builds seldom share (codec, block, helper), so more entries would only
keep dead tables alive.  Verifying against that table is still not
circular: it is the codec's encoding, not the gate list, and the tests
check the registers against an encoding rebuilt from the codec alone.
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
    """The cycles of a permutation whose every key moves (it holds no
    fixed point), each from its least point, in ascending order of it."""
    seen: set[int] = set()
    out = []
    for start in sorted(perm):
        if start in seen:
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
    block domain.  The block pass decompresses all 2^block blocks and the
    checks sweep the register, so a register of block+1 lines above the
    sweep ceiling raises DomainTooLarge before any codec call; past that
    pass, the build's work scales with the compressed blocks.
    """
    # The data sits on lines 1..block and line 0 takes the mode bit.  A raw
    # code is key | 1, which the final flip of line 0 undoes, so only a
    # compressed block moves: key x goes to c | 1 for its code mask c, and
    # those points take back the keys, each list in ascending order.
    codes = _fig1_codes(codec, block, helper)
    sigma = {
        _to_mask(format(v, f"0{block}b")) << 1: _to_mask(code) | 1
        for v, code in enumerate(codes)
        if code[0] == "0"
    }
    sigma |= zip(sorted(sigma.values()), sorted(sigma))
    reg_width = block + 1

    register = tuple(range(reg_width))
    chain_count = max(0, reg_width - 3) if sigma else 0
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


@dataclass(frozen=True)
class BlockTable:
    """A Fig. 1 reference map: codes[v] is the escape code of data value v
    zero-padded to block+1 bits.  Called on data of `block` bits it looks
    the code up; verify_compiled reads the codes as rows instead."""

    block: int
    codes: tuple[str, ...]

    def __call__(self, data: BitString) -> BitString:
        if len(data) != self.block:
            raise WidthMismatch(f"expected {self.block} data bits, got {len(data)}")
        return _trusted(self.codes[data.to_int()])


def fig1_block_oracle(codec: CompressionCodec, block: int, helper: BitString) -> BlockTable:
    """The BlockTable the built circuit must equal on its data register:
    data -> code(data, helper) zero-padded to block+1 bits.  It holds the
    build's own checked table (see the module docstring), and raises what
    the build raises for it."""
    return BlockTable(block, _fig1_codes(codec, block, helper))


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
    # pass could give two blocks one code.  Two compressed blocks sharing a
    # code would leave the build's sigma no permutation, and _cycles, which
    # takes every key to move, would hang on it.
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
    """mismatches (input, got, want) and ancilla_violations (input, line,
    kind), at most 16 each, in input order; first_offender is the first
    case of both, a mismatch first, as (input, line, kind): a mismatch has
    its lowest differing result line, or None when the widths differ."""

    swept: int
    mismatches: tuple = ()
    ancilla_violations: tuple = ()
    first_offender: tuple | None = None
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
    recorded, in input order.  A BlockTable (of k-bit blocks, else
    WidthMismatch) is compared on rows: the OR of each result row XOR its
    codes' row has a bit set at each input that differs.  Any other map
    is called on BitString.from_int(x, k) for each input x, in order.
    """
    k = len(compiled.input_lines)
    check_sweep(f"an input register of {k} lines", lines=k)
    if isinstance(oracle, BlockTable) and oracle.block != k:
        raise WidthMismatch(f"expected {oracle.block} data bits, got {k}")
    c = compiled.circuit
    count = 1 << k
    ones = (1 << count) - 1
    rows = [ones if bit else 0 for bit in compiled.assemble_input(BitString.zeros(k))]
    # Input x is BitString.from_int(x, k): data line j carries bit k-1-j of x.
    for line, row in zip(reversed(compiled.input_lines), cube_rows(k)):
        rows[line] = row
    out = run_states(c, rows, count)
    got = [out[i] for i in compiled.result_lines]

    mismatches = []
    if isinstance(oracle, BlockTable):  # column j of the codes, read backwards, is result line j's row
        text, width = "".join(oracle.codes), oracle.block + 1
        diffs = (row ^ int(text[j::width][::-1], 2) for j, row in enumerate(got))
        bad = functools.reduce(operator.or_, diffs) if len(got) == width else ones  # another width differs at every input
        for x in _low_bits(bad):
            data = BitString.from_int(x, k)
            mismatches.append((data, _trusted("".join("01"[row >> x & 1] for row in got)), oracle(data)))
    else:
        for text, result in zip(_render([rows[i] for i in compiled.input_lines], count), _render(got, count)):
            data = _trusted(text)
            want = oracle(data)
            if result != str(want) and len(mismatches) < _KEEP:
                mismatches.append((data, _trusted(result), want))

    checks = [(out[i], i, "ancilla not restored") for i in compiled.ancilla_lines]
    checks += [(ones ^ out[i], i, "constant line flipped") for i in compiled.const_one_lines]
    if compiled.helper_lines:
        changed = functools.reduce(operator.or_, (out[i] ^ rows[i] for i in compiled.helper_lines))
        checks.append((changed, compiled.helper_lines[0], "helper changed"))
    bad = functools.reduce(operator.or_, (row for row, _, _ in checks), 0)
    violations = []  # input order, then check order
    for x in _low_bits(bad):
        violations += [(BitString.from_int(x, k), i, what) for row, i, what in checks if row >> x & 1]
    first = min(mismatches[:1] + violations[:1], key=lambda case: case[0].to_int(), default=None)  # a tie keeps the mismatch
    if mismatches and first is mismatches[0]:
        data, result, want = first
        lines = [i for i, a, b in zip(compiled.result_lines, result, want) if a != b]
        first = (data, min(lines), "result differs") if len(result) == len(want) else (data, None, "result width differs")
    return VerificationReport(count, tuple(mismatches), tuple(violations[:_KEEP]), first)


def _low_bits(mask: int) -> list[int]:
    """The positions of the lowest 16 set bits of mask, ascending."""
    found = []
    while mask and len(found) < _KEEP:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


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
