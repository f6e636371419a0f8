"""The int- and trie-level kernels against per-character references.

The references below are the straightforward per-character versions of
each kernel (dict-keyed lz78 parse, per-character xor, per-bit box
condition, per-line state packing and table assembly, sort-based
injectivity, per-bit mask conversions, a scalar gate interpreter over
bit masks, 2-D-indexed gate sweep, per-role constant-line check,
dict-walking netlist evaluation, a name-map Bennett compile loop, the
pad-and-slice lowering of a gate and the per-role join of a constant
mask, the per-character stop-bit scan of a gamma header, the
per-value compress loop of a codec's batch block outputs, the
per-block BitString loop of the Fig. 1 table and the point-by-point walk
of the register cube that extends it to a permutation).  Every
kernel must return exactly the reference's output.  A cached structure (a circuit's
permutation table, a weight class's rows) must equal a fresh build, be
the same object on a second call, and refuse writes.
"""

import dataclasses
import functools
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauer import circuits, clausius, irrev
from landauer.synth import bennett_compile
from landauer.clausius import (
    WeightCouple,
    _class_rows,
    _weight_masks,
    clausius_experiment,
    count_class_transitions,
    random_conservative_circuit,
)
from landauer.bitstring import BitString, decode_uint, encode_self_delimiting, encode_uint
from landauer.circuits import (
    ANCILLA_ZERO,
    CNOT,
    CONST_ONE,
    FREDKIN,
    INPUT,
    LINE_ROLES,
    NOT,
    OUTPUT_ALIAS,
    TOFFOLI,
    Gate,
    ReversibleCircuit,
    _check_constant_lines,
    _to_mask,
    check_injective_bruteforce,
    cnot,
    check_conservative,
    cube_rows,
    fredkin,
    not_gate,
    permutation_table,
    run_states,
    simulate,
    simulate_trajectory,
    toffoli,
)
from landauer.compress import (
    LZ78,
    REGISTRY,
    XOR,
    ComplexityEstimate,
    CompressionCodec,
    _compressed,
    _lz78_compress,
    _lz78_length,
    _lz78_parse,
    block_codes,
    default_family,
    encode_with_escape,
    estimate_complexity,
)
from landauer.errors import BadConstantLine, CodecNotInjective, DomainTooLarge, MalformedCode, NotConservative
from landauer.prbox import CorrelationQuadruple, check_pr_condition, generate_pr_quadruple
from landauer.synth import _transposition_gates, build_fig1_compressor, fig1_block_oracle

# --- references ------------------------------------------------------------------


def ref_lz78_compress(data: str, helper: str) -> str:
    phrases: dict[str, int] = {}
    cur = ""
    for ch in helper:
        cur += ch
        if cur not in phrases:
            phrases[cur] = len(phrases) + 1
            cur = ""
    out = [str(encode_uint(len(data)))]
    cur = ""
    for ch in data:
        cand = cur + ch
        if cand in phrases:
            cur = cand
            continue
        w = len(phrases).bit_length()
        if w:
            out.append(format(phrases[cur] if cur else 0, f"0{w}b"))
        out.append(ch)
        phrases[cand] = len(phrases) + 1
        cur = ""
    if cur:
        out.append(format(phrases[cur], f"0{len(phrases).bit_length()}b"))
    return "".join(out)


def ref_encode_with_escape(codec, data: BitString, helper: BitString) -> BitString:
    """The escape rule on BitStrings: mode bit, then the self-delimited code
    when it fits in len(data) bits, else the data itself."""
    wrapped = encode_self_delimiting(codec.compress(data, helper))
    if len(wrapped) <= len(data):
        return BitString("0") + wrapped
    return BitString("1") + data


def ref_fig1_table(codec, block: int, helper: BitString) -> dict[int, int]:
    """The per-block Fig. 1 table loop on BitStrings: round trip, escape
    code, collision check, register state -> code mask, in value order."""
    table: dict[int, int] = {}
    used: set[int] = set()
    for s_val in range(1 << block):
        data = BitString.from_int(s_val, block)
        if codec.decompress(codec.compress(data, helper), helper) != data:
            raise CodecNotInjective(f"{codec.name} fails round-trip on {data}")
        e = _to_mask(ref_encode_with_escape(codec, data, helper))
        if e in used:
            raise CodecNotInjective(f"{codec.name} block encoding collides at {data}")
        used.add(e)
        table[_to_mask(data) << 1] = e
    return table


def ref_fig1_permutation(codec, block: int, helper: BitString) -> dict[int, int]:
    """The Fig. 1 block table extended point by point over the whole
    (block+1)-line register cube: a leftover point takes its mode-flipped
    partner when no block took it, the rest take the free points in order;
    then the final flip of line 0 is factored out of every image."""
    table = ref_fig1_table(codec, block, helper)
    cube = range(1 << (block + 1))
    used = set(table.values())
    deferred = []
    for v in cube:
        if v in table:
            continue
        if v ^ 1 in used:
            deferred.append(v)
        else:
            table[v] = v ^ 1
            used.add(v ^ 1)
    table.update(zip(deferred, sorted(set(cube) - used)))
    return {x: y ^ 1 for x, y in table.items()}


def ref_cycles(perm: dict[int, int]) -> list[list[int]]:
    """The cycles of perm that move, each from its least point, in order."""
    seen: set[int] = set()
    out = []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        while perm[cyc[-1]] != start:
            cyc.append(perm[cyc[-1]])
        seen.update(cyc)
        out.append(cyc)
    return out


def ref_gamma(m: int) -> str:
    """Elias gamma of m >= 1: (bit length - 1) zeros, then m in binary."""
    return format(m, "b").zfill(2 * m.bit_length() - 1)


def ref_decode_uint(text: str, start: int = 0) -> tuple[int, int]:
    """The gamma header read one character at a time up to its stop bit."""
    i = start
    zeros = 0
    while i < len(text) and text[i] == "0":
        zeros += 1
        i += 1
    if i >= len(text):
        raise MalformedCode("truncated gamma header (no stop bit)")
    if i + zeros + 1 > len(text):
        raise MalformedCode("truncated gamma header (value cut short)")
    return int(text[i : i + zeros + 1], 2) - 1, (i + zeros + 1) - start


def ref_xor_compress(data: str, helper: str) -> str:
    k = min(len(data), len(helper))
    payload = "".join("1" if a != b else "0" for a, b in zip(data[:k], helper[:k])) + data[k:]
    if "1" not in payload:
        return "0" + str(encode_uint(len(data)))
    return "1" + payload


def ref_pr_y(a: BitString, b: BitString, x: BitString) -> BitString:
    return BitString((ai & bi) ^ xi for ai, bi, xi in zip(a, b, x))


def ref_pr_condition(q: CorrelationQuadruple) -> bool:
    return all((xi ^ yi) == (ai & bi) for ai, bi, xi, yi in zip(q.a, q.b, q.x, q.y))


def ref_pack_states(states: np.ndarray, width: int) -> np.ndarray:
    planes = [np.packbits((states >> i & 1).astype(np.uint8)) for i in range(width)]
    return np.array(planes, dtype=np.uint8).reshape(width, (len(states) + 7) // 8)


def ref_rows(bits) -> list[int]:
    """Each line of 0/1 states as one int, bit x being state x."""
    return [int.from_bytes(np.packbits(line, bitorder="little").tobytes(), "little") for line in bits]


def ref_permutation_table(c: ReversibleCircuit) -> np.ndarray:
    count = 1 << c.width
    image = np.unpackbits(ref_run_states(c, ref_pack_states(np.arange(count), c.width)), axis=1, count=count)
    return sum((line.astype(np.int64) << i for i, line in enumerate(image)), np.zeros(count, dtype=np.int64))


def ref_injective_table(table: np.ndarray) -> bool:
    return bool(np.array_equal(np.sort(table), np.arange(len(table))))


def ref_to_mask(bits: BitString) -> int:
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def ref_from_mask(mask: int, width: int) -> BitString:
    return BitString("".join("1" if mask >> i & 1 else "0" for i in range(width)))


def ref_simulate(c: ReversibleCircuit, input_bits: BitString) -> BitString:
    """A scalar interpreter that shares nothing with the gate kernel: the
    state is one int (bit i = line i) and each gate is lowered to bit masks."""
    prog = []
    for g in c.gates:
        if g.kind == TOFFOLI:
            prog.append((0, 1 << g.controls[0], 1 << g.controls[1], 1 << g.targets[0]))
        elif g.kind == CNOT:
            prog.append((1, 1 << g.controls[0], 1 << g.targets[0], 0))
        elif g.kind == NOT:
            prog.append((2, 1 << g.targets[0], 0, 0))
        else:
            prog.append((3, 1 << g.controls[0], 1 << g.targets[0], 1 << g.targets[1]))
    mask = ref_to_mask(input_bits)
    for op, a, b, d in prog:
        if op == 0:
            if mask & a and mask & b:
                mask ^= d
        elif op == 1:
            if mask & a:
                mask ^= b
        elif op == 2:
            mask ^= a
        else:
            if mask & a and bool(mask & b) != bool(mask & d):
                mask ^= b | d
    return ref_from_mask(mask, c.width)


def ref_gate_ok(g: Gate, width: int) -> bool:
    """The five gate checks, one at a time: a known kind, that kind's
    arity, distinct lines, no negative line, no line at or past the width."""
    arity = {TOFFOLI: (2, 1), CNOT: (1, 1), NOT: (0, 1), FREDKIN: (1, 2)}
    if g.kind not in arity:
        return False
    if (len(g.controls), len(g.targets)) != arity[g.kind]:
        return False
    lines = g.controls + g.targets
    if len(set(lines)) != len(lines):
        return False
    if min(lines) < 0:
        return False
    if max(lines) >= width:
        return False
    return True


def ref_run_states(c: ReversibleCircuit, planes: np.ndarray) -> np.ndarray:
    p = np.array(planes, dtype=np.uint8)
    for g in c.gates:
        t = g.targets[0]
        if g.kind == TOFFOLI:
            p[t] ^= p[g.controls[0]] & p[g.controls[1]]
        elif g.kind == CNOT:
            p[t] ^= p[g.controls[0]]
        elif g.kind == NOT:
            p[t] ^= 0xFF
        else:
            a, b = g.targets
            swap = p[g.controls[0]] & (p[a] ^ p[b])
            p[a] ^= swap
            p[b] ^= swap
    return p


def ref_class_states(couple: WeightCouple) -> list[BitString]:
    """The class in sweep order, which is descending text order: each left
    half, in combinations order, with every right half."""
    n = couple.n
    halves = ("".join(s) for s in product("01", repeat=2 * n))
    weights = (couple.left_weight, couple.right_weight)
    return [BitString(s) for s in sorted(halves, reverse=True) if (s[:n].count("1"), s[n:].count("1")) == weights]


def ref_weight_change(c: ReversibleCircuit, state: BitString) -> str:
    """The state, then the first gate after which the scalar interpreter,
    run one gate at a time, gives it another weight."""
    s = state
    for i, g in enumerate(c.gates):
        s = ref_simulate(ReversibleCircuit(c.width, (g,)), s)
        if str(s).count("1") != str(state).count("1"):
            return f"{state}, at gate {i} ({g.kind} on lines {', '.join(map(str, g.controls + g.targets))})"
    raise AssertionError(f"{state} keeps its weight")


def ref_count_class_transitions(c: ReversibleCircuit, source: WeightCouple, target: WeightCouple, cube: bool = False) -> int:
    """Simulate each class state and count the weights of its halves;
    the first state whose image changes weight is named, with its gate.
    With cube, every state of the circuit is checked first, in state-integer
    order with line i as bit i of x, and the first that changes weight is
    named the same way."""
    for x in range(2**c.width if cube else 0):
        state = BitString(format(x, f"0{c.width}b")[::-1])
        if str(simulate(c, state)).count("1") != str(state).count("1"):
            offender = ref_weight_change(c, state)
            raise NotConservative(f"circuit does not preserve Hamming weight: first offending state {offender}")
    n, count = source.n, 0
    for state in ref_class_states(source):
        image = str(simulate(c, state))
        weights = image[:n].count("1"), image[n:].count("1")
        if sum(weights) != source.left_weight + source.right_weight:
            offender = ref_weight_change(c, state)
            raise NotConservative(f"circuit changes the Hamming weight of source-class state {offender}")
        count += weights == (target.left_weight, target.right_weight)
    return count


def ref_step(g: Gate) -> tuple:
    """A gate's `_apply` step: its kind, then its lines right-aligned in three slots."""
    return (g.kind,) + ((0,) * 3 + g.controls + g.targets)[-3:]


def ref_const(roles: tuple[str, ...]) -> tuple[int, int]:
    """(CONST_ONE lines, ANCILLA_ZERO lines) as masks, joined role by role."""
    return tuple(_to_mask("".join("1" if r == role else "0" for r in roles)) for role in (CONST_ONE, ANCILLA_ZERO))


def ref_check_constant_lines(c: ReversibleCircuit, mask: int) -> None:
    for i, role in enumerate(c.line_roles):
        bit = mask >> i & 1
        if role == CONST_ONE and bit != 1:
            raise BadConstantLine(f"line {i} is CONST_ONE but carries 0")
        if role == ANCILLA_ZERO and bit != 0:
            raise BadConstantLine(f"line {i} is ANCILLA_ZERO but carries 1")


def ref_evaluate(c: irrev.IrreversibleCircuit, input_bits: BitString) -> BitString:
    value = dict(zip(c.inputs, input_bits))
    for g in c.gates:
        a = value[g.args[0]]
        if g.op == irrev.NOT:
            value[g.gate_id] = a ^ 1
        else:
            b = value[g.args[1]]
            value[g.gate_id] = a & b if g.op == irrev.AND else a | b if g.op == irrev.OR else a ^ b
    return BitString(value[o] for o in c.outputs)


def ref_bennett_gates(src: irrev.IrreversibleCircuit) -> tuple:
    """The Bennett gate list with its own name -> line map: input i on
    line i, gate j on line k + j, output i copied to line k + g + i."""
    k, g = len(src.inputs), len(src.gates)
    line_of = {name: i for i, name in enumerate(src.inputs)}
    forward = []
    for j, gate in enumerate(src.gates):
        t = k + j
        a = line_of[gate.args[0]]
        if gate.op == irrev.NOT:
            forward += [cnot(a, t), not_gate(t)]
        else:
            b = line_of[gate.args[1]]
            if a == b:
                if gate.op in (irrev.AND, irrev.OR):
                    forward.append(cnot(a, t))
            elif gate.op == irrev.AND:
                forward.append(toffoli(a, b, t))
            elif gate.op == irrev.XOR:
                forward += [cnot(a, t), cnot(b, t)]
            else:
                forward += [cnot(a, t), cnot(b, t), toffoli(a, b, t)]
        line_of[gate.gate_id] = t
    copies = [cnot(line_of[ref], k + g + i) for i, ref in enumerate(src.outputs)]
    return tuple(forward + copies + forward[::-1])


# --- inputs ----------------------------------------------------------------------

bits = st.text(alphabet="01", max_size=300)


@st.composite
def data_helper(draw):
    """(data, helper): independent, periodic data, or a helper that is a
    prefix of the data; empty strings are in every branch's range."""
    kind = draw(st.sampled_from(("independent", "periodic", "prefix")))
    if kind == "periodic":
        period = draw(st.text(alphabet="01", min_size=1, max_size=12))
        n = draw(st.integers(0, 400))
        data = (period * (n // len(period) + 1))[:n]
        helper = draw(st.sampled_from(("", period, period * 3)))
    elif kind == "prefix":
        data = draw(bits)
        helper = data[: draw(st.integers(0, len(data)))]
    else:
        data, helper = draw(bits), draw(bits)
    return data, helper


@st.composite
def circuits_of_width(draw, widths=st.integers(1, 17)):
    """A random circuit mixing every gate kind its width admits."""
    w = draw(widths)
    makers = [(not_gate, 1), (cnot, 2), (toffoli, 3), (fredkin, 3)]
    makers = [(make, arity) for make, arity in makers if arity <= w]
    gates = []
    for _ in range(draw(st.integers(0, 24 if makers else 0))):
        make, arity = draw(st.sampled_from(makers))
        lines = draw(st.lists(st.integers(0, w - 1), min_size=arity, max_size=arity, unique=True))
        gates.append(make(*lines))
    return ReversibleCircuit(w, tuple(gates))


def lz78_width_examples(test):
    """Examples at every lz78 index-width change up to 12 bits, the width
    a 4096-bit prbox report reaches.

    The helper is the first D phrases in breadth-first order (each is a
    known phrase plus one bit), so its warm-up dictionary has exactly D
    entries, for D = 2^k - 1 and 2^k, k = 0..11.  The data then starts with
    a fused (index, bit) token at width D.bit_length() and another at the
    width of D + 1, or is one known phrase: a lone index-only token.  One
    more example is 4096 seeded random bits under the empty helper, whose
    code crosses every run of equal width from the empty dictionary on.
    """
    phrases = [format(v, "b")[1:] for v in range(2, 2**13)]
    for D in sorted({d for k in range(12) for d in (2**k - 1, 2**k)}):
        helper = "".join(phrases[:D])
        test = example(("".join(phrases[D : D + 2]), helper))(test)
        if D:
            test = example((phrases[D - 1], helper))(test)
    return example((format(random.Random(0).getrandbits(4096), "04096b"), ""))(test)


# bookmarks of five 8-bit blocks with 1-3 bit codes, so the compressed
# branch writes codes of several lengths, the 3-bit one filling the block
# exactly; every other block is tagged
_MARKS = {"00000000": "0", "11111111": "1", "10101010": "00", "01010101": "01", "00110011": "000"}
_UNMARKS = {v: k for k, v in _MARKS.items()}


def _marks_compress(data: str, helper: str) -> str:
    if data in _MARKS:
        return _MARKS[data]
    return "111" + str(encode_uint(len(data))) + data


def _marks_decompress(code: str, helper: str) -> str:
    if code in _UNMARKS:
        return _UNMARKS[code]
    n, used = decode_uint(code, 3)
    return code[3 + used : 3 + used + n]


MARKS = CompressionCodec("marks", "10", _marks_compress, _marks_decompress)

# fifteen scattered 8-bit blocks written as the 15 strings of at most 3
# bits, in shortlex order, so that the compressed branch moves many blocks
# of one register; every other block is tagged
_RANKED = [format((37 * r + 11) % 256, "08b") for r in range(15)]
_RANK = {d: r for r, d in enumerate(_RANKED)}
RANKS = CompressionCodec(
    "ranks",
    "10",
    lambda d, h: format(_RANK[d] + 1, "b")[1:] if d in _RANK else "1111" + d,
    lambda c, h: _RANKED[int("1" + c, 2) - 1] if len(c) < 4 else c[4:],
)

HELPERS = [format(v, f"0{n}b") if n else "" for n in range(5) for v in range(1 << n)]

_BITS40 = format(random.Random(36).getrandbits(40), "040b")


def block_helpers(block: int) -> tuple[str, ...]:
    """Empty; shorter than the block, as long as it and longer; 40 random bits."""
    return ("", _BITS40[: block - 1], _BITS40[:block], _BITS40[: block + 3], _BITS40)


# --- kernels equal their references --------------------------------------------------


@given(data_helper())
@example(("", ""))
@example(("", "0110"))
@example(("0110", ""))
@example(("0" * 300, "0"))
@lz78_width_examples
@settings(max_examples=300)
def test_lz78_trie_matches_dict_reference(pair):
    data, helper = pair
    code = LZ78.compress(BitString(data), BitString(helper))
    assert str(code) == ref_lz78_compress(data, helper)
    assert LZ78.decompress(code, BitString(helper)) == BitString(data)


bits64 = st.text(alphabet="01", max_size=64)


@given(bits64, bits64, bits64)
@example("0110", "01100", "01")
@settings(max_examples=100)
def test_lz78_compress_never_grows_the_cached_helper_parse(d1, d2, h):
    _compressed.cache_clear()  # so the first compress runs its kernel
    LZ78.compress(BitString(d1), BitString(h))
    code = LZ78.compress(BitString(d2), BitString(h))
    assert str(code) == ref_lz78_compress(d2, h)
    assert LZ78.decompress(code, BitString(h)) == BitString(d2)
    assert all(type(part) is tuple for part in _lz78_parse(h, "")[:2])


@given(data_helper())
@example(("", ""))
@example(("", "0110"))
@example(("010", ""))  # a final partial phrase "0"
@example(("0", "0"))  # data that is all one helper phrase: an index-only token
@lz78_width_examples  # helper dictionaries of 2^k - 1 and 2^k phrases
@settings(max_examples=300)
def test_lz78_length_is_the_length_of_the_written_code(pair):
    data, helper = pair
    assert _lz78_length(data, helper) == len(_lz78_compress(data, helper))


@pytest.mark.parametrize("codec", default_family() + (MARKS,), ids=lambda c: c.name)
@given(data_helper())
@example(("", ""))
@example(("00000000", "0"))
@settings(max_examples=100)
def test_code_length_is_the_length_of_the_code(codec, pair):
    data, helper = BitString(pair[0]), BitString(pair[1])
    assert codec.code_length(data, helper) == len(codec.compress(data, helper))


@given(data_helper())
@example(("", ""))
@example(("", "1"))
@example(("1", ""))
@settings(max_examples=300)
def test_xor_int_matches_per_character_reference(pair):
    data, helper = pair
    code = XOR.compress(BitString(data), BitString(helper))
    assert str(code) == ref_xor_compress(data, helper)
    assert XOR.decompress(code, BitString(helper)) == BitString(data)


@pytest.mark.parametrize("codec", default_family() + (MARKS,), ids=lambda c: c.name)
def test_fig1_table_equals_the_per_block_reference(codec):
    for helper in map(BitString, HELPERS):
        for block in range(1, 9):
            codes = fig1_block_oracle(codec, block, helper).codes
            assert all(len(code) == block + 1 for code in codes)
            table = [(_to_mask(BitString.from_int(v, block)) << 1, _to_mask(code)) for v, code in enumerate(codes)]
            assert table == list(ref_fig1_table(codec, block, helper).items())
    if codec is MARKS:  # the compressed branch, at three code lengths
        assert {len(encode_with_escape(MARKS, BitString(m), BitString())) for m in _MARKS} == {5, 6, 9}


@pytest.mark.parametrize("codec", [c for c in default_family() if c._codes], ids=lambda c: c.name)
def test_batch_codes_equal_the_per_value_compress_loop(codec):
    for block in range(1, 11):
        for helper in block_helpers(block):
            loop = [codec._compress(format(v, f"0{block}b"), helper) for v in range(1 << block)]
            assert codec._codes(block, helper) == loop


@pytest.mark.parametrize("codec", default_family(), ids=lambda c: c.name)
def test_block_codes_are_the_same_from_the_batch_and_the_loop(codec):
    loop_only = dataclasses.replace(codec, _codes=None)
    for block in range(1, 11):
        for helper in map(BitString, block_helpers(block)):
            assert block_codes(codec, block, helper) == block_codes(loop_only, block, helper)
    assert {c.name for c in default_family() if c._codes} == {"lz78", "xor"}  # the batch path runs


@pytest.mark.parametrize("codec", default_family() + (MARKS, RANKS), ids=lambda c: c.name)
def test_fig1_build_transposes_the_cycles_of_the_dense_permutation(codec):
    longest = 0
    for helper, block in product(map(BitString, ("", "1", "10", "011", "0110", "10110100")), range(1, 9)):
        sigma = ref_fig1_permutation(codec, block, helper)
        assert sorted(sigma.values()) == sorted(sigma) == list(range(1 << (block + 1)))
        cycles = ref_cycles(sigma)
        register = tuple(range(block + 1))
        chain = tuple(range(block + 1, 2 * block - 1)) if cycles else ()
        want = [g for cyc in cycles for v in cyc[1:] for g in _transposition_gates(cyc[0], v, register, chain)]
        circuit = build_fig1_compressor(codec, block, helper).circuit
        assert circuit.gates == (*want, not_gate(0))
        assert circuit.width == block + 1 + len(chain) + len(helper)
        longest = max([longest, *map(len, cycles)])
    if codec in (MARKS, RANKS):  # cycles longer than a swap
        assert longest > 2


@pytest.mark.parametrize("codec", default_family() + (MARKS,), ids=lambda c: c.name)
@given(data_helper())
@example(("", ""))
@example(("0", ""))
@example(("0" * 17, "0" * 17))  # xor: the wrapped run record fills the 17 bits exactly
@example(("0" * 300, "0" * 300))
@settings(max_examples=100)
def test_escape_rule_equals_the_bitstring_reference(codec, pair):
    data, helper = map(BitString, pair)
    assert encode_with_escape(codec, data, helper) == ref_encode_with_escape(codec, data, helper)


@given(st.integers(1, 2000), st.integers(0, 2**32))
@settings(max_examples=100)
def test_pr_generation_and_check_match_per_bit_reference(n, seed):
    q = generate_pr_quadruple(n, seed)
    assert q.y == ref_pr_y(q.a, q.b, q.x)
    assert check_pr_condition(q) is ref_pr_condition(q) is True
    flipped = BitString.from_int(q.y.to_int() ^ (1 << (seed % n)), n)
    broken = CorrelationQuadruple(q.a, q.b, q.x, flipped)
    assert check_pr_condition(broken) is ref_pr_condition(broken) is False


@given(data_helper())
@settings(max_examples=100)
def test_one_pass_estimate_matches_separate_calls(pair):
    # expected values come from the kernels called directly: codec.compress
    # would be served from the same cache entries as the one-pass estimate
    codes = {c.name: BitString(c._compress(*pair)) for c in default_family()}
    cost = {
        c.name: len(encode_uint(len(c.id_bits))) + len(c.id_bits) + len(codes[c.name])
        for c in default_family()
    }
    best = min(cost, key=cost.get)  # the first cheapest, in family order
    data, helper = BitString(pair[0]), BitString(pair[1])
    assert estimate_complexity(data, helper) == ComplexityEstimate(cost[best], best)


# --- trusted constructions equal validated ones ----------------------------------------


@given(bits, bits, st.integers(-310, 310), st.integers(-310, 310))
@settings(max_examples=200)
def test_trusted_results_equal_validating_constructor(a_text, b_text, i, j):
    a, b = BitString(a_text), BitString(b_text)
    cases = [
        (a[i:j], a_text[i:j]),
        (a[::2], a_text[::2]),
        (a + b, a_text + b_text),
        (encode_uint(len(a_text)), ref_gamma(len(a_text) + 1)),
        (BitString.from_int(a.to_int(), len(a_text)), a_text),
        (BitString.zeros(len(b_text)), "0" * len(b_text)),
    ]
    k = min(len(a_text), len(b_text))
    cases.append(
        (a[:k].xor(b[:k]), "".join("1" if x != y else "0" for x, y in zip(a_text, b_text)))
    )
    for built, text in cases:
        validated = BitString(text)
        assert type(built) is BitString
        assert built == validated and hash(built) == hash(validated)
        assert str(built) == text and len(built) == len(text)


def test_validating_constructor_still_rejects_non_bits():
    for text in ("012", "2", "01 ", "0b1", "é", "\ud800", "٠", "１", "0\x00", "0\n"):
        with pytest.raises(ValueError):
            BitString(text)
    with pytest.raises(ValueError):
        BitString("01") + "012"


@given(st.text())
@example("\ud800")
@example("0\udfff1")
@settings(max_examples=300)
def test_validating_constructor_accepts_exactly_the_bit_strings(text):
    if set(text) <= {"0", "1"}:
        assert str(BitString(text)) == text
    else:
        with pytest.raises(ValueError) as info:
            BitString(text)
        assert str(info.value) == f"bit string may contain only '0'/'1': {text!r}"


# --- circuit-sweep kernels equal their references ---------------------------------------


def test_cube_rows_equal_packed_arange_at_every_width():
    for w in range(0, 21):
        assert cube_rows(w) == ref_rows(np.arange(2**w) >> i & 1 for i in range(w)), w


@given(circuits_of_width())
@example(ReversibleCircuit(8, (cnot(7, 0), not_gate(3))))
@example(ReversibleCircuit(9, (toffoli(8, 0, 4), fredkin(7, 8, 1))))
@example(ReversibleCircuit(16, (cnot(15, 8), toffoli(7, 8, 0))))
@example(ReversibleCircuit(17, (cnot(16, 0), fredkin(0, 16, 8), not_gate(15))))
@settings(max_examples=60, deadline=None)
def test_permutation_table_equals_shift_add_reference(c):
    table = permutation_table(c)
    assert table.dtype == np.int64
    assert np.array_equal(table, ref_permutation_table(c))
    assert check_injective_bruteforce(c, c.width) is ref_injective_table(table) is True
    assert permutation_table(c) is table
    with pytest.raises(ValueError):
        table[0] = table[-1]


def test_cached_table_is_refused_under_a_lower_ceiling(monkeypatch):
    c = ReversibleCircuit(6, (fredkin(0, 1, 5), fredkin(2, 3, 4)))
    assert check_conservative(c, exhaustive=True)  # caches the table at width 6
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "5")
    sweeps = (permutation_table, lambda c: check_injective_bruteforce(c, 6), lambda c: check_conservative(c, True))
    for sweep in sweeps:
        with pytest.raises(DomainTooLarge):
            sweep(c)
    # a fresh circuit holds no table, and is refused before the cube's rows are laid out
    monkeypatch.setattr(circuits, "cube_rows", lambda width: pytest.fail("cube rows laid out"))
    with pytest.raises(DomainTooLarge):
        check_injective_bruteforce(dataclasses.replace(c), 6)


BOOKMARK8_FIG1 = build_fig1_compressor(REGISTRY["bookmark8"], 8, BitString("00")).circuit  # 17 lines, 32 gates


@given(circuits_of_width(st.integers(0, 12)))
@example(ReversibleCircuit(0))
@example(ReversibleCircuit(1, (not_gate(0),)))
@example(ReversibleCircuit(2, (cnot(0, 1), cnot(1, 0))))
@example(BOOKMARK8_FIG1)
@settings(max_examples=100, deadline=None)
def test_row_proof_agrees_with_the_marking_pass(c):
    twin = dataclasses.replace(c)
    permutation_table(twin)  # the twin holds its table, so it takes the marking pass
    assert check_injective_bruteforce(c, c.width) is check_injective_bruteforce(twin, c.width) is True
    assert "_table" not in c.__dict__  # the row proof built no table


def test_both_injectivity_paths_refuse_a_kernel_that_copies():
    """With cnot copying its control line instead of adding it, the map
    merges states: no run back recovers them on the int rows of a fresh
    circuit, and the table built on plane views misses some image."""
    kernel = circuits._apply

    def copying(prog, rows, ones):
        for step in prog:
            if step[0] == CNOT:
                t, b = step[3], step[2]
                rows[t] ^= rows[t] ^ rows[b]  # in place on a plane view, rebound on an int row
            else:
                kernel((step,), rows, ones)
        return rows

    merging = (ReversibleCircuit(2, (cnot(0, 1),)), ReversibleCircuit(5, (toffoli(0, 1, 2), cnot(3, 4), fredkin(4, 0, 1))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuits, "_apply", copying)
        for c in merging:
            assert check_injective_bruteforce(c, c.width) is False
            twin = dataclasses.replace(c)
            permutation_table(twin)
            assert check_injective_bruteforce(twin, c.width) is False


couples = st.integers(0, 7).flatmap(
    lambda n: st.builds(WeightCouple, st.just(n), st.integers(0, n), st.integers(0, n))
)


@given(couples)
@example(WeightCouple(0, 0, 0))
@example(WeightCouple(8, 4, 4))
@settings(max_examples=100)
def test_cached_class_rows_equal_a_fresh_build(couple):
    rows = _class_rows(couple)
    assert rows == _class_rows.__wrapped__(couple)
    assert _class_rows(couple) is rows
    with pytest.raises(TypeError):
        rows[0] = 0


@st.composite
def class_cases(draw):
    """A couple with 2 <= n <= 6, a target (of the same total weight in
    about half the draws) and a random circuit of width 2n.  Half the
    circuits are followed by their own reverse and Fredkin gates, so that
    their Toffoli and CNOT gates keep the weight."""
    n = draw(st.integers(2, 6))
    left, right = draw(st.integers(0, n)), draw(st.integers(0, n))
    target_left = draw(st.integers(max(0, left + right - n), min(n, left + right)))
    target_right = draw(st.just(left + right - target_left) | st.integers(0, n))
    c = draw(circuits_of_width(st.just(2 * n)))
    if draw(st.booleans()):
        fredkins = random_conservative_circuit(2 * n, draw(st.integers(0, 12)), draw(st.integers(0, 99)))
        c = ReversibleCircuit(2 * n, c.gates + c.gates[::-1] + fredkins.gates)
    return c, WeightCouple(n, left, right), WeightCouple(n, target_left, target_right)


def _count_outcome(count, *case):
    try:
        return count(*case)
    except NotConservative as exc:
        return type(exc), str(exc)


@given(class_cases())
@example((ReversibleCircuit(4, (toffoli(2, 3, 0),)), WeightCouple(2, 2, 0), WeightCouple(2, 2, 0)))
@example((ReversibleCircuit(6, (cnot(0, 5), cnot(0, 5))), WeightCouple(3, 2, 1), WeightCouple(3, 2, 1)))
@settings(max_examples=100, deadline=None)
def test_class_count_equals_the_per_state_reference(case):
    # a ceiling below 2n checks the class alone; at 2n, as at the default, the whole cube
    for ceiling in (2 * case[1].n - 1, 2 * case[1].n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("LANDAUER_MAX_WIDTH", str(ceiling))
            reference = functools.partial(ref_count_class_transitions, cube=ceiling == case[0].width)
            assert _count_outcome(count_class_transitions, *case) == _count_outcome(reference, *case)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_experiment_counts_equal_the_per_state_reference(data):
    n = data.draw(st.integers(2, 6))
    wn = data.draw(st.integers((n + 1) // 2, n - 1))
    wdn = data.draw(st.integers(wn, n))
    drawn = data.draw(st.lists(circuits_of_width(st.just(2 * n)), min_size=1, max_size=3))
    with pytest.MonkeyPatch.context() as mp:
        # the experiment's point and tail counts on the drawn circuits, whatever their gates
        mp.setattr(clausius, "random_conservative_circuit", lambda width, gates, seed, it=iter(drawn): next(it))
        report = clausius_experiment(n, Fraction(wn, n), Fraction(wdn - wn, n), circuits=len(drawn), seed=0)
    states = ref_class_states(WeightCouple(n, wn, n - wn))
    lefts = [[str(simulate(c, s))[:n].count("1") for s in states] for c in drawn]
    assert report.max_point_fraction == max(Fraction(ws.count(wdn), len(states)) for ws in lefts)
    assert report.max_tail_fraction == max(Fraction(sum(w >= wdn for w in ws), len(states)) for ws in lefts)


@given(st.integers(0, 70).flatmap(lambda count: st.tuples(st.just(count), st.lists(st.integers(0, 2**count - 1), max_size=8))))
@settings(max_examples=200)
def test_weight_masks_equal_per_state_popcounts(case):
    count, rows = case
    masks = _weight_masks(rows, (1 << count) - 1)
    weights = [sum(r >> x & 1 for r in rows) for x in range(count)]
    assert masks == [sum(1 << x for x, w in enumerate(weights) if w == k) for k in range(len(rows) + 1)]


@st.composite
def tables(draw):
    """A map of the n-bit states into themselves: a permutation, or any map."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return np.array(draw(st.permutations(range(2**n))), dtype=np.int64)
    return np.array(draw(st.lists(st.integers(0, 2**n - 1), min_size=2**n, max_size=2**n)), dtype=np.int64)


@given(tables())
@example(np.array([0, 0], dtype=np.int64))
@example(np.array([1, 0, 3, 3], dtype=np.int64))
@settings(max_examples=200)
def test_onto_check_agrees_with_sort_reference(table):
    n = len(table).bit_length() - 1
    c = ReversibleCircuit(n)
    c.__dict__["_table"] = table  # the circuit only fixes the width; the table it holds is the drawn map
    assert check_injective_bruteforce(c, n) is ref_injective_table(table)


@given(bits)
@example("")
@example("0")
@example("0001")
@example("1000")
def test_to_mask_equals_per_bit_reference(text):
    b = BitString(text)
    assert _to_mask(b) == ref_to_mask(b)


# --- lowered forms equal their references ------------------------------------------


OLD_SWITCH = 8 * 1024  # states per batch where run_states once switched from Python ints to numpy planes
FLIP_ALL = ReversibleCircuit(3, (not_gate(0), not_gate(1), not_gate(2)))  # bits past the batch stay 0


@given(
    circuits_of_width(st.integers(1, 70)),
    st.integers(0, 320) | st.integers(OLD_SWITCH - 20, OLD_SWITCH + 20),
    st.randoms(use_true_random=False),
)
@example(ReversibleCircuit(1, (not_gate(0),)), 1, random.Random(0))
@example(ReversibleCircuit(70, (fredkin(69, 0, 35), toffoli(68, 1, 2), cnot(0, 69))), 21, random.Random(1))
@example(FLIP_ALL, 0, random.Random(2))
@example(FLIP_ALL, OLD_SWITCH - 3, random.Random(3))
@example(FLIP_ALL, OLD_SWITCH + 5, random.Random(4))
@example(ReversibleCircuit(3, (fredkin(0, 1, 2), toffoli(0, 1, 2))), 37, random.Random(5))
@settings(max_examples=150, deadline=None)
def test_row_view_run_states_equals_indexed_reference(c, count, rnd):
    """Python-int rows, on both sides of the batch size where run_states
    once switched to numpy planes, equal the 2-D-indexed plane reference
    bit for bit, with no bit set past the batch."""
    bits = np.random.default_rng(rnd.getrandbits(32)).integers(0, 2, (c.width, count), dtype=np.uint8)
    rows = ref_rows(bits)
    before = list(rows)
    out = run_states(c, rows, count)
    assert out == ref_rows(np.unpackbits(ref_run_states(c, np.packbits(bits, axis=1)), axis=1, count=count))
    assert rows == before and out is not rows  # the input batch is not modified
@given(
    circuits_of_width(st.integers(1, 70)).flatmap(
        lambda c: st.tuples(st.just(c), st.integers(0, 2**c.width - 1).map(lambda x: BitString.from_int(x, c.width)))
    )
)
@example((ReversibleCircuit(1), BitString("1")))
@example((ReversibleCircuit(3, (fredkin(0, 1, 2), fredkin(0, 2, 1))), BitString("110")))
@example((ReversibleCircuit(70, (fredkin(69, 0, 35), toffoli(68, 1, 2), cnot(0, 69), not_gate(69))), BitString("1" * 70)))
@settings(max_examples=150, deadline=None)
def test_simulate_and_trajectory_equal_the_mask_reference(case):
    c, x = case
    out = simulate(c, x)
    assert type(out) is BitString and out == ref_simulate(c, x)
    states = simulate_trajectory(c, x)
    assert len(states) == c.gate_count() + 1
    assert states[0] == x and states[-1] == out
    for k, state in enumerate(states):
        assert type(state) is BitString and state == ref_simulate(ReversibleCircuit(c.width, c.gates[:k]), x)


@st.composite
def roles_and_state(draw):
    width = draw(st.integers(0, 40))
    roles = tuple(draw(st.lists(st.sampled_from(LINE_ROLES), min_size=width, max_size=width)))
    return ReversibleCircuit(width, (), roles), draw(st.integers(0, 2**width - 1))


def _outcome(check, c, mask):
    try:
        check(c, mask)
    except BadConstantLine as exc:
        return type(exc), str(exc)
    return None


@given(roles_and_state())
@example((ReversibleCircuit(2, (), (CONST_ONE, ANCILLA_ZERO)), 0b10))
@example((ReversibleCircuit(2, (), (ANCILLA_ZERO, CONST_ONE)), 0b01))
@example((ReversibleCircuit(3, (), (CONST_ONE, CONST_ONE, ANCILLA_ZERO)), 0b111))
@settings(max_examples=300)
def test_mask_constant_check_equals_per_role_loop(case):
    c, mask = case
    assert _outcome(_check_constant_lines, c, mask) == _outcome(ref_check_constant_lines, c, mask)
    # a second check on the same circuit reads the cached masks
    assert _outcome(_check_constant_lines, c, mask) == _outcome(ref_check_constant_lines, c, mask)


@given(circuits_of_width(st.integers(1, 30)), st.data())
@settings(max_examples=100)
def test_reversed_program_equals_fresh_lowering(c, data):
    roles = data.draw(st.lists(st.sampled_from(LINE_ROLES), min_size=c.width, max_size=c.width))
    c = ReversibleCircuit(c.width, c.gates, tuple(roles))
    # each gate lowers to one step of its own, so the gates in reverse
    # order lower to the steps in reverse order
    r = ReversibleCircuit(c.width, c.gates[::-1], c.line_roles)
    assert r._prog == c._prog[::-1]
    assert r._const == c._const
    back = ReversibleCircuit(r.width, r.gates[::-1], r.line_roles)
    assert back == c and back._prog == c._prog


# a gate kind equal to the constant but another object, as a kind read from JSON is
_COPIED_KIND = {kind: "".join(kind) for kind in (TOFFOLI, CNOT, NOT, FREDKIN)}


@given(circuits_of_width(st.integers(1, 30)), st.integers(0, 2**30 - 1))
@example(ReversibleCircuit(3, (toffoli(0, 1, 2), cnot(2, 0), not_gate(1), fredkin(0, 1, 2))), 0b011)
@settings(max_examples=100, deadline=None)
def test_kinds_equal_to_the_constants_run_like_them(c, state):
    c = ReversibleCircuit(c.width, tuple(Gate(_COPIED_KIND[g.kind], g.controls, g.targets) for g in c.gates))
    assert all(g.kind is not kind for g in c.gates for kind in _COPIED_KIND)
    x = BitString.from_int(state % 2**c.width, c.width)
    want = ref_simulate(c, x)
    assert simulate(c, x) == want
    states = simulate_trajectory(c, x)
    assert states[-1] == want
    assert all(state == ref_simulate(ReversibleCircuit(c.width, c.gates[:k]), x) for k, state in enumerate(states))
    # a batch of eight copies of x, each line one byte
    out = run_states(c, [0xFF if bit else 0 for bit in x], 8)
    assert BitString("".join({0xFF: "1", 0: "0"}[row] for row in out)) == want


@given(circuits_of_width(st.integers(0, 40)), st.data())
@example(ReversibleCircuit(3, (toffoli(0, 1, 2), cnot(2, 0), not_gate(1), fredkin(0, 1, 2))), None)
@example(ReversibleCircuit(0), None)
@settings(max_examples=200)
def test_lowering_equals_the_pad_and_slice_steps_and_per_role_masks(c, data):
    roles = (INPUT,) * c.width
    if data is not None:
        roles = tuple(data.draw(st.lists(st.sampled_from(LINE_ROLES), min_size=c.width, max_size=c.width)))
    copied = data is None or data.draw(st.booleans())
    gates = tuple(Gate(_COPIED_KIND[g.kind], g.controls, g.targets) for g in c.gates) if copied else c.gates
    c = ReversibleCircuit(c.width, gates, roles)
    assert c._prog == tuple(map(ref_step, gates))
    # a step's kind is the constant itself (a key of _COPIED_KIND), whatever object its gate's kind is
    assert all(step[0] is next(k for k in _COPIED_KIND if k == g.kind) for step, g in zip(c._prog, gates))
    assert c._const == ref_const(roles)


@pytest.mark.parametrize(
    "make, args, kind, controls, targets",
    [
        (toffoli, (4, 0, 2), TOFFOLI, (4, 0), (2,)),
        (cnot, (3, 1), CNOT, (3,), (1,)),
        (not_gate, (5,), NOT, (), (5,)),
        (fredkin, (0, 2, 1), FREDKIN, (0,), (2, 1)),
    ],
)
def test_each_factory_returns_the_gate_record(make, args, kind, controls, targets):
    g = make(*args)
    assert type(g) is Gate and g == Gate(kind, controls, targets)


gamma_headers = st.builds(
    lambda prefix, m, cut, tail: prefix + (ref_gamma(m) + tail)[: None if cut is None else cut],
    st.text(alphabet="01", max_size=8),
    st.integers(1, 2**70),
    st.none() | st.integers(0, 140),
    st.text(alphabet="01", max_size=8),
)


def _decoded(decode, text, start):
    try:
        return decode(text, start)
    except MalformedCode as exc:
        return type(exc), str(exc)


@given(gamma_headers | bits | st.text(alphabet="0", max_size=40), st.integers(0, 12))
@example("", 0)
@example("0000", 0)
@example("0001", 0)
@example("00010", 0)
@example("1", 0)
@example("1", 1)
@example("11", 5)
@example("10011", 2)
@settings(max_examples=500)
def test_decode_uint_equals_the_per_character_scan(text, start):
    """Random, all-zero, truncated and offset headers: the same (value,
    bits consumed), or the same refusal, from a BitString or its text."""
    want = _decoded(ref_decode_uint, text, start)
    assert _decoded(decode_uint, text, start) == want
    assert _decoded(decode_uint, BitString(text), start) == want


gate_lines = st.lists(st.integers(-2, 6), max_size=3).map(tuple)


@given(
    st.builds(Gate, st.sampled_from((TOFFOLI, CNOT, NOT, FREDKIN, "swap")), gate_lines, gate_lines),
    st.integers(0, 6),
    st.integers(0, 2**6 - 1),
)
@example(toffoli(0, 1, 2), 3, 0b011)
@example(cnot(5, 0), 6, 0b100001)
@example(not_gate(0), 1, 0)
@example(fredkin(2, 0, 1), 3, 0b101)
@example(fredkin(2, 0, 3), 3, 0)
@example(cnot(-1, 0), 2, 0)
@settings(max_examples=500)
def test_the_constructor_refuses_exactly_the_gates_the_five_checks_refuse(gate, width, state):
    if not ref_gate_ok(gate, width):
        with pytest.raises(ValueError) as info:
            ReversibleCircuit(width, (gate,))
        assert str(info.value).startswith(f"gate 0 {gate} ")
        return
    c = ReversibleCircuit(width, (gate,))
    x = BitString.from_int(state % 2**width, width)
    assert simulate(c, x) == ref_simulate(c, x)


@st.composite
def netlists(draw):
    """Random netlists: repeated arguments (xor(x, x)), not chains, outputs
    naming inputs, and zero gates are all in range."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 8)))]
    pool = list(names)
    gates = []
    for j in range(draw(st.integers(0, 20))):
        op = draw(st.sampled_from(irrev.OPS))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(1 if op == irrev.NOT else 2))
        gates.append(irrev.LogicGate(f"g{j}", op, args))
        pool.append(f"g{j}")
    outputs = draw(st.lists(st.sampled_from(pool), max_size=8))
    return irrev.IrreversibleCircuit(tuple(names), tuple(gates), tuple(outputs))


def wire_through(n):
    """An n-input netlist whose outputs are its inputs, with no gates."""
    names = tuple(f"x{i}" for i in range(n))
    return irrev.IrreversibleCircuit(names, (), names)


NOT_CHAIN = irrev.IrreversibleCircuit(
    ("a",),
    tuple(irrev.LogicGate(f"n{j}", irrev.NOT, (f"n{j - 1}" if j else "a",)) for j in range(5)),
    ("n4", "n3", "a"),
)


def _net(inputs, gates, outputs):
    """A netlist from (id, op, args...) rows."""
    gates = tuple(irrev.LogicGate(g[0], g[1], tuple(g[2:])) for g in gates)
    return irrev.IrreversibleCircuit(tuple(inputs), gates, tuple(outputs))


@given(netlists(), st.data())
@example(irrev.rom_circuit(BitString("0110"), 2), None)
@example(wire_through(3), None)
@example(NOT_CHAIN, None)
@example(irrev.IrreversibleCircuit(("a",), (), ()), None)
@example(irrev.IrreversibleCircuit((), (), ()), None)
# every gate dead: the outputs are inputs only
@example(_net("ab", [("g0", "and", "a", "b"), ("g1", "not", "g0")], ("b", "a")), None)
# the only output is the first gate, which later gates read
@example(_net("ab", [("g0", "xor", "a", "b"), ("g1", "or", "g0", "a"), ("g2", "not", "g1")], ("g0",)), None)
# a live gate reached only through a chain of NOTs, and g0 only as its second argument
@example(
    _net("ab", [("g0", "and", "a", "b"), ("g1", "xor", "a", "g0"), ("n0", "not", "g1"), ("n1", "not", "n0")], ("n1",)),
    None,
)
# one node listed twice as an output
@example(_net("ab", [("g0", "or", "a", "b"), ("g1", "and", "a", "b")], ("g1", "a", "g1")), None)
@settings(max_examples=200)
def test_lowered_evaluate_equals_dict_reference(net, data):
    k = len(net.inputs)
    xs = range(1 << k) if data is None else [data.draw(st.integers(0, 2**k - 1))]
    for x in xs:
        bits = BitString.from_int(x, k)
        got = irrev.evaluate(net, bits)
        assert type(got) is BitString and got == ref_evaluate(net, bits)


@given(netlists())
@example(irrev.rom_circuit(BitString("0110"), 2))
@example(wire_through(3))
@example(NOT_CHAIN)
@example(irrev.IrreversibleCircuit(("a",), (), ()))
@settings(max_examples=200)
def test_bennett_lines_are_the_netlist_node_indices(net):
    k, g, m = len(net.inputs), len(net.gates), len(net.outputs)
    roles = (INPUT,) * k + (ANCILLA_ZERO,) * g + (OUTPUT_ALIAS,) * m
    assert bennett_compile(net).circuit == ReversibleCircuit(k + g + m, ref_bennett_gates(net), roles)
