import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauer.bitstring import BitString, encode_self_delimiting
from landauer.circuits import (
    ANCILLA_ZERO,
    CNOT,
    CONST_ONE,
    HELPER,
    INPUT,
    OUTPUT_ALIAS,
    TOFFOLI,
    ReversibleCircuit,
    check_injective_bruteforce,
    cnot,
    permutation_table,
    simulate,
)
from landauer.compress import (
    BOOKMARK8,
    IDENTITY,
    LZ78,
    XOR,
)
from landauer.errors import (
    CodecNotInjective,
    DomainTooLarge,
    LandauerError,
    WidthMismatch,
)
from landauer.irrev import (
    AND,
    IrreversibleCircuit,
    LogicGate,
    evaluate,
    random_netlist,
)
from landauer.rng import substream
from landauer.synth import (
    CompiledReversible,
    VerificationReport,
    bennett_compile,
    build_fig1_compressor,
    fig1_block_oracle,
    verify_compiled,
)
from test_reference_kernels import _MARKS, MARKS, netlists


def wire_through(n):
    """An n-input netlist whose outputs are its inputs, with no gates."""
    names = tuple(f"x{i}" for i in range(n))
    return IrreversibleCircuit(names, (), names)


def fig1_expected(codec, block, helper, data):
    """Hand-rolled expected register content, independent of the builder
    and of compress.encode_with_escape."""
    wrapped = encode_self_delimiting(codec.compress(data, helper))
    if len(wrapped) <= block:
        coded = BitString("0") + wrapped
    else:
        coded = BitString("1") + data
    return coded + BitString.zeros(block + 1 - len(coded))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: bennett_compile(IrreversibleCircuit(("a", "b"), (), ("a",))).assemble_input(BitString("1")),
            WidthMismatch,
            "expected 2 data bits, got 1",
        ),
        (lambda: build_fig1_compressor(XOR, 0, BitString()), LandauerError, "block must be at least 1"),
        (
            lambda: verify_compiled(bennett_compile(IrreversibleCircuit(tuple("abcde"), (), ("a",))), lambda d: d[:1]),
            DomainTooLarge,
            "an input register of 5 lines exceeds the 2^4 sweep ceiling",
        ),
    ],
    ids=["assemble-width", "block-zero", "verify-above-ceiling"],
)
def test_refusals_name_what_is_wrong(monkeypatch, call, error, message):
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "4")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_single_and_gate_layout():
    src = IrreversibleCircuit(("a", "b"), (LogicGate("g", "and", ("a", "b")),), ("g",))
    comp = bennett_compile(src)
    kinds = [g.kind for g in comp.circuit.gates]
    assert kinds == [TOFFOLI, CNOT, TOFFOLI]  # forward, copy, uncompute
    state = comp.run(BitString("11"))
    assert comp.result(state) == BitString("1")
    assert state[comp.ancilla_lines[0]] == 0  # junk restored


def test_identity_source_compiles_to_copies_only():
    comp = bennett_compile(wire_through(3))
    assert all(g.kind == CNOT for g in comp.circuit.gates)
    assert comp.result(comp.run(BitString("101"))) == BitString("101")


def test_full_adder_exhaustive():
    src = IrreversibleCircuit(
        ("a", "b", "cin"),
        (
            LogicGate("axb", "xor", ("a", "b")),
            LogicGate("s", "xor", ("axb", "cin")),
            LogicGate("ab", "and", ("a", "b")),
            LogicGate("axbc", "and", ("axb", "cin")),
            LogicGate("cout", "or", ("ab", "axbc")),
        ),
        ("s", "cout"),
    )
    comp = bennett_compile(src)
    report = verify_compiled(comp, lambda x: evaluate(src, x))
    assert report.ok and report.swept == 8
    # spot-check against the arithmetic truth table
    for v in range(8):
        a, b, cin = v >> 2 & 1, v >> 1 & 1, v & 1
        total = a + b + cin
        got = comp.result(comp.run(BitString.from_int(v, 3)))
        assert got == BitString([total & 1, total >> 1])


def test_compiler_soundness_random_netlists():
    rng = substream(31, "soundness")
    for _ in range(15):
        src = random_netlist(rng.randint(1, 8), rng.randint(0, 20), rng)
        comp = bennett_compile(src)
        report = verify_compiled(comp, lambda x, s=src: evaluate(s, x))
        assert report.ok, report


@given(st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_bennett_circuit_is_its_own_inverse_and_its_reversed_gate_list(k, data, seed):
    # k inputs and g gates give at most (k + g) // 2 outputs: width <= 16
    src = random_netlist(k, data.draw(st.integers(0, 11 - k)), random.Random(seed))
    c = bennett_compile(src).circuit
    t = permutation_table(c)
    assert (t[t] == np.arange(1 << c.width)).all()
    assert (t == permutation_table(ReversibleCircuit(c.width, c.gates[::-1], c.line_roles))).all()


def test_verify_detects_one_deleted_gate():
    src = IrreversibleCircuit(
        ("a", "b"),
        (LogicGate("g0", "and", ("a", "b")), LogicGate("g1", "xor", ("g0", "a"))),
        ("g1",),
    )
    comp = bennett_compile(src)
    broken = comp.circuit.__class__(
        comp.circuit.width, comp.circuit.gates[:-1], comp.circuit.line_roles
    )
    bad = replace(comp, circuit=broken)
    report = verify_compiled(bad, lambda x: evaluate(src, x))
    assert report.mismatches or report.ancilla_violations


def verify_one_state_at_a_time(compiled, oracle):
    """Reference for verify_compiled: one scalar simulate per input, with
    its cap of 16 recorded cases of each kind."""
    keep = 16
    k = len(compiled.input_lines)
    mismatches, violations, seen = [], [], set()
    for x in range(1 << k):
        data = BitString.from_int(x, k)
        state = compiled.run(data)
        got, want = compiled.result(state), oracle(data)
        if got != want and len(mismatches) < keep:
            mismatches.append((data, got, want))
        for line in compiled.ancilla_lines:
            if state[line] != 0 and len(violations) < keep:
                violations.append((data, line, "ancilla not restored"))
        for line in compiled.const_one_lines:
            if state[line] != 1 and len(violations) < keep:
                violations.append((data, line, "constant line flipped"))
        if compiled.helper_lines:
            if compiled.pick(state, compiled.helper_lines) != compiled.helper_value and len(violations) < keep:
                violations.append((data, compiled.helper_lines[0], "helper changed"))
        seen.add(str(state))
    assert len(seen) == 1 << k  # distinct inputs, distinct full states
    return VerificationReport(1 << k, tuple(mismatches), tuple(violations))


def with_gates(compiled, extra):
    c = compiled.circuit
    circuit = ReversibleCircuit(c.width, c.gates + tuple(extra), c.line_roles)
    return replace(compiled, circuit=circuit)


@given(netlists(), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3))
@example(IrreversibleCircuit((), (), ()), [])
@example(IrreversibleCircuit(("a", "b"), (LogicGate("g", AND, ("a", "b")),), ()), [(0, 2)])
@example(wire_through(6), [(0, 6), (1, 11)])  # 48 of 64 results wrong
@settings(max_examples=100, deadline=None)
def test_verify_equals_the_scalar_reference(net, flaws):
    """Bennett builds of random netlists, some broken by extra CNOTs (each
    (control, target) taken modulo the width), report as the reference does."""
    comp = bennett_compile(net)
    w = comp.circuit.width
    comp = with_gates(comp, [cnot(a % w, b % w) for a, b in flaws if a % w != b % w])
    oracle = lambda x: evaluate(net, x)
    assert verify_compiled(comp, oracle) == verify_one_state_at_a_time(comp, oracle)


@pytest.mark.parametrize("k", [0, 1, 3, 9])
def test_verify_calls_the_oracle_once_per_input_in_order(k):
    calls = []

    def oracle(data):
        calls.append(data)
        return data

    report = verify_compiled(bennett_compile(wire_through(k)), oracle)
    assert report.ok and report.swept == 1 << k
    assert calls == [BitString.from_int(x, k) for x in range(1 << k)]
    assert all(type(data) is BitString for data in calls)


def test_verify_wide_bennett_matches_scalar_reference():
    # 6 inputs + 60 work lines + 4 outputs: wider than an int64 state
    drawn = random_netlist(6, 60, substream(33, "wide"))
    src = replace(drawn, outputs=tuple(g.gate_id for g in drawn.gates[-4:]))
    comp = bennett_compile(src)
    assert comp.circuit.width == 70
    oracle = lambda x: evaluate(src, x)
    report = verify_compiled(comp, oracle)
    assert report.ok and report.swept == 64
    assert report == verify_one_state_at_a_time(comp, oracle)

    last_ancilla = comp.ancilla_lines[-1]
    dirty = with_gates(comp, [cnot(0, last_ancilla)])
    report = verify_compiled(dirty, oracle)
    assert report.ancilla_violations[0] == (BitString("100000"), last_ancilla, "ancilla not restored")
    assert not report.mismatches and report.injective_on_domain
    assert report == verify_one_state_at_a_time(dirty, oracle)

    # cases interleave: input order first, then ancilla order within an input
    wrong = with_gates(comp, [cnot(5, comp.output_lines[-1]), cnot(5, last_ancilla), cnot(4, comp.ancilla_lines[0])])
    report = verify_compiled(wrong, oracle)
    assert len(report.mismatches) == len(report.ancilla_violations) == 16  # of 32 offending inputs
    assert report == verify_one_state_at_a_time(wrong, oracle)


def test_verify_fig1_helper_and_constant_lines_match_scalar_reference():
    helper = BitString("101")
    comp = build_fig1_compressor(BOOKMARK8, 4, helper)
    oracle = fig1_block_oracle(BOOKMARK8, 4, helper)
    assert verify_compiled(comp, oracle) == verify_one_state_at_a_time(comp, oracle)
    touched = with_gates(comp, [cnot(comp.input_lines[0], comp.helper_lines[1])])
    report = verify_compiled(touched, oracle)
    assert report.ancilla_violations[0][1:] == (comp.helper_lines[0], "helper changed")
    assert report == verify_one_state_at_a_time(touched, oracle)


def test_verify_flags_a_flipped_constant_line():
    circuit = ReversibleCircuit(3, (cnot(1, 2), cnot(0, 1)), (INPUT, CONST_ONE, OUTPUT_ALIAS))
    comp = CompiledReversible(circuit)
    report = verify_compiled(comp, lambda x: BitString("1"))
    assert report.ancilla_violations == ((BitString("1"), 1, "constant line flipped"),)
    assert report == verify_one_state_at_a_time(comp, lambda x: BitString("1"))


def test_verify_counts_unequal_result_lengths_as_mismatches():
    comp = bennett_compile(wire_through(3))
    report = verify_compiled(comp, lambda x: x + BitString("0"))
    assert report.mismatches[:2] == (
        (BitString("000"), BitString("000"), BitString("0000")),
        (BitString("001"), BitString("001"), BitString("0010")),
    )


def test_compiled_line_sets_are_the_circuit_roles():
    roles = (HELPER, INPUT, ANCILLA_ZERO, CONST_ONE, INPUT, OUTPUT_ALIAS, HELPER, ANCILLA_ZERO, OUTPUT_ALIAS)
    comp = CompiledReversible(ReversibleCircuit(len(roles), (), roles), helper_value=BitString("10"))
    assert comp.input_lines == (1, 4)
    assert comp.output_lines == comp.result_lines == (5, 8)
    assert comp.helper_lines == (0, 6)
    assert comp.ancilla_lines == (2, 7)
    assert comp.const_one_lines == (3,)
    assert comp.assemble_input(BitString("01")) == BitString("100110000")


def test_helper_value_length_must_match_helper_lines():
    compiled = build_fig1_compressor(XOR, 4, BitString("10"))
    assert len(compiled.helper_lines) == 2
    for value in (BitString("1"), BitString("101"), BitString()):
        with pytest.raises(WidthMismatch):
            replace(compiled, helper_value=value)


# --- reversible block compression -------------------------------------------------


def test_fig1_bookmark_full_contract():
    helper = BitString("10")
    comp = build_fig1_compressor(BOOKMARK8, 8, helper)
    oracle = fig1_block_oracle(BOOKMARK8, 8, helper)
    report = verify_compiled(comp, oracle)
    assert report.ok and report.swept == 256
    # independent expected values, both branches exercised
    branches = set()
    for v in range(256):
        s = BitString.from_int(v, 8)
        want = fig1_expected(BOOKMARK8, 8, helper, s)
        assert comp.result(comp.run(s)) == want
        branches.add(want[0])
    assert branches == {0, 1}  # compressed and raw both occur
    assert check_injective_bruteforce(comp.circuit, comp.circuit.width)
    assert comp.circuit.width <= 20


def test_fig1_junk_neutrality():
    # only the data register may change; helper and ancillas keep their bits
    helper = BitString("10")
    comp = build_fig1_compressor(BOOKMARK8, 8, helper)
    for v in (0, 37, 170, 255):
        s = BitString.from_int(v, 8)
        before = comp.assemble_input(s)
        after = comp.run(s)
        for line in range(comp.circuit.width):
            if line not in comp.result_lines:
                assert before[line] == after[line]


def test_fig1_lz78_all_raw_at_block8():
    # every self-delimited lz78 code overflows an 8-bit block, so the map
    # degenerates to the raw escape: a single flip of the mode line
    helper = BitString("10")
    comp = build_fig1_compressor(LZ78, 8, helper)
    oracle = fig1_block_oracle(LZ78, 8, helper)
    assert verify_compiled(comp, oracle).ok
    assert comp.circuit.gate_count() == 1
    assert check_injective_bruteforce(comp.circuit, comp.circuit.width)


def test_fig1_xor_matches_its_oracle():
    helper = BitString("10110100")
    comp = build_fig1_compressor(XOR, 8, helper)
    report = verify_compiled(comp, fig1_block_oracle(XOR, 8, helper))
    assert report.ok and report.swept == 256


def test_fig1_identity_codec_with_escape_is_mode_flip():
    comp = build_fig1_compressor(IDENTITY, 4, BitString())
    for v in range(16):
        s = BitString.from_int(v, 4)
        assert comp.result(comp.run(s)) == BitString("1") + s


def test_fig1_small_blocks():
    helper = BitString("1")
    for block in (1, 2, 3):
        comp = build_fig1_compressor(XOR, block, helper)
        oracle = fig1_block_oracle(XOR, block, helper)
        assert verify_compiled(comp, oracle).ok
        assert check_injective_bruteforce(comp.circuit, comp.circuit.width)


def test_fig1_rejects_non_injective_codec():
    from landauer.compress import CompressionCodec

    lossy = CompressionCodec("lossy", "11", lambda d, h: d[:-1] or "0", lambda c, h: c + "0")
    with pytest.raises(CodecNotInjective):
        build_fig1_compressor(lossy, 4, BitString())


def test_fig1_rejects_a_codec_whose_decompress_breaks_one_block():
    from landauer.compress import CompressionCodec

    # compress is injective and every block takes the raw branch, so only
    # the round trip can find the one block that decompresses wrongly
    def decompress(code, helper):
        return "1001" if code == "0110" else code

    broken = CompressionCodec("broken", "11", lambda d, h: d, decompress)
    with pytest.raises(CodecNotInjective, match="0110"):
        build_fig1_compressor(broken, 4, BitString())


def test_fig1_checks_a_compress_output_for_bits_before_decompressing_it():
    from landauer.compress import CompressionCodec

    decompressed = []

    def decompress(code, helper):
        decompressed.append(code)
        return code

    codec = CompressionCodec("nonbits", "11", lambda d, h: "01x0" if d == "0110" else d, decompress)
    for make in (build_fig1_compressor, fig1_block_oracle):
        decompressed.clear()
        with pytest.raises(ValueError):
            make(codec, 4, BitString())
        assert decompressed == [format(v, "04b") for v in range(6)]  # never the code of 0110


def test_fig1_refuses_a_decompress_output_that_is_not_bits():
    from landauer.compress import CompressionCodec

    codec = CompressionCodec("nonbits", "11", lambda d, h: d, lambda c, h: "01x0" if c == "0110" else c)
    with pytest.raises(ValueError):
        build_fig1_compressor(codec, 4, BitString())


def test_fig1_refuses_codes_equal_after_zero_padding(monkeypatch):
    from landauer import synth

    # A genuine escape code is prefix-free and so never equals another after
    # padding; the table still compares the padded masks, not the texts.
    monkeypatch.setattr(synth, "block_codes", lambda codec, block, helper: ["100", "01", "010", "111"])
    with pytest.raises(CodecNotInjective, match="padded block encoding collides at 10"):
        fig1_block_oracle(replace(XOR, name="padded"), 2, BitString())


def test_fig1_build_leaves_the_compress_memo_alone():
    from landauer import compress, synth

    synth._fig1_table.cache_clear()
    before = compress._compressed.cache_info()
    build_fig1_compressor(LZ78, 8, BitString("0110"))
    assert synth._fig1_table.cache_info().misses == 1
    assert compress._compressed.cache_info() == before


def test_fig1_build_compresses_each_block_once():
    from landauer.compress import CompressionCodec

    calls = []

    def compress(data, helper):
        calls.append(data)
        return BOOKMARK8._compress(data, helper)

    counted = CompressionCodec("counted", "00", compress, BOOKMARK8._decompress)
    helper = BitString("10")
    compiled = build_fig1_compressor(counted, 8, helper)
    assert sorted(calls) == [format(v, "08b") for v in range(256)]
    assert verify_compiled(compiled, fig1_block_oracle(BOOKMARK8, 8, helper)).ok


def test_fig1_register_beyond_ceiling_is_refused_before_any_codec_call(monkeypatch):
    from landauer.compress import CompressionCodec

    calls = []

    def compress(data, helper):
        calls.append(data)
        return XOR._compress(data, helper)

    counted = CompressionCodec("counted", "01", compress, XOR._decompress)
    with pytest.raises(DomainTooLarge, match="block register of 41 lines"):
        build_fig1_compressor(counted, 40, BitString("1"))
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "4")
    with pytest.raises(DomainTooLarge):
        build_fig1_compressor(counted, 4, BitString("1"))
    assert calls == []
    build_fig1_compressor(counted, 3, BitString("1"))  # a 4-line register fits
    assert len(calls) == 8


def test_fig1_build_and_its_oracle_share_one_block_table():
    from landauer.compress import CompressionCodec

    compressed, decompressed = [], []

    def compress(data, helper):
        compressed.append(data)
        return BOOKMARK8._compress(data, helper)

    def decompress(code, helper):
        decompressed.append(code)
        return BOOKMARK8._decompress(code, helper)

    counted = CompressionCodec("counted", "00", compress, decompress)
    helper = BitString("01")
    compiled = build_fig1_compressor(counted, 8, helper)
    assert verify_compiled(compiled, fig1_block_oracle(counted, 8, helper)).ok
    assert (len(compressed), len(decompressed)) == (256, 256)


def test_fig1_oracle_rejects_a_non_injective_codec():
    from landauer.compress import CompressionCodec

    lossy = CompressionCodec("lossy", "11", lambda d, h: d[:-1] or "0", lambda c, h: c + "0")
    with pytest.raises(CodecNotInjective):
        fig1_block_oracle(lossy, 4, BitString())


def test_fig1_oracle_beyond_ceiling_is_refused_before_any_codec_call(monkeypatch):
    from landauer.compress import CompressionCodec

    calls = []

    def compress(data, helper):
        calls.append(data)
        return XOR._compress(data, helper)

    counted = CompressionCodec("counted", "01", compress, XOR._decompress)
    with pytest.raises(DomainTooLarge, match="block register of 41 lines"):
        fig1_block_oracle(counted, 40, BitString("1"))
    assert calls == []
    build_fig1_compressor(counted, 4, BitString("1"))  # caches the 5-line table
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "4")
    with pytest.raises(DomainTooLarge):
        fig1_block_oracle(counted, 4, BitString("1"))


def test_fig1_oracle_refuses_data_of_another_length():
    oracle = fig1_block_oracle(XOR, 4, BitString("10"))
    assert oracle(BitString("1010")) == fig1_expected(XOR, 4, BitString("10"), BitString("1010"))
    for data in ("", "101", "10101"):
        with pytest.raises(WidthMismatch):
            oracle(BitString(data))


def test_fig1_table_is_never_served_for_another_key():
    # each key differs from the one before it in one of codec, block, helper;
    # bookmark8 compresses a different block under each helper
    keys = [
        (BOOKMARK8, 8, BitString("10")),
        (BOOKMARK8, 8, BitString("01")),
        (XOR, 8, BitString("01")),
        (BOOKMARK8, 4, BitString("01")),
        (BOOKMARK8, 8, BitString("10")),
    ]
    oracles = []
    for codec, block, helper in keys:
        compiled = build_fig1_compressor(codec, block, helper)
        oracle = fig1_block_oracle(codec, block, helper)
        oracles.append(oracle)
        for v in range(1 << block):
            s = BitString.from_int(v, block)
            want = fig1_expected(codec, block, helper, s)
            assert compiled.result(compiled.run(s)) == want
            assert oracle(s) == want
    # an oracle keeps its own table after later builds replaced the cached one
    for (codec, block, helper), oracle in zip(keys, oracles):
        for v in range(1 << block):
            s = BitString.from_int(v, block)
            assert oracle(s) == fig1_expected(codec, block, helper, s)


def test_fig1_multiple_compressible_blocks():
    # five bookmark values with 1-3 bit codes: exercises multi-cycle residues
    compiled = build_fig1_compressor(MARKS, 8, BitString("1"))
    report = verify_compiled(compiled, fig1_block_oracle(MARKS, 8, BitString("1")))
    assert report.ok and report.swept == 256
    modes = {compiled.result(compiled.run(BitString(m)))[0] for m in _MARKS}
    assert modes == {0}  # every bookmark takes the compressed branch
    assert check_injective_bruteforce(compiled.circuit, compiled.circuit.width)


def _random_bookmark_codec(rng, block):
    """Codec compressing a random set of blocks to random distinct short
    codes; everything else goes through a long tagged branch."""
    from landauer.bitstring import decode_uint, encode_uint
    from landauer.compress import CompressionCodec

    short_codes = [
        format(v, f"0{n}b") if n else ""
        for n in range(4)
        for v in range(1 << n)
    ]
    rng.shuffle(short_codes)
    count = rng.randint(1, len(short_codes))
    values = rng.sample(range(1 << block), count)
    marks = {
        str(BitString.from_int(v, block)): short_codes[i] for i, v in enumerate(values)
    }
    inverse = {v: k for k, v in marks.items()}

    def comp(data, helper):
        if data in marks:
            return marks[data]
        return "1111" + str(encode_uint(len(data))) + data

    def decomp(code, helper):
        if code in inverse:
            return inverse[code]
        n, used = decode_uint(BitString(code), 4)
        return code[4 + used : 4 + used + n]

    return CompressionCodec("randmarks", "11", comp, decomp)


def test_fig1_random_injective_maps_stress():
    rng = substream(33, "fig1-stress")
    import random as _random

    for trial in range(20):
        local = _random.Random(rng.randrange(2**63))
        codec = _random_bookmark_codec(local, 8)
        compiled = build_fig1_compressor(codec, 8, BitString("1"))
        report = verify_compiled(compiled, fig1_block_oracle(codec, 8, BitString("1")))
        assert report.ok, trial
        assert check_injective_bruteforce(compiled.circuit, compiled.circuit.width)


def test_fig1_scales_to_block_twelve():
    compiled = build_fig1_compressor(LZ78, 12, BitString("01"))
    oracle = fig1_block_oracle(LZ78, 12, BitString("01"))
    report = verify_compiled(compiled, oracle)
    assert report.ok and report.swept == 4096


def test_transposition_gadget_moves_exactly_two_states():
    from landauer.circuits import ReversibleCircuit, ANCILLA_ZERO, INPUT
    from landauer.synth import _transposition_gates

    rng = substream(34, "gadget")
    for _ in range(40):
        reg_width = rng.randint(2, 6)
        chain_count = max(0, reg_width - 3)
        register = tuple(range(reg_width))
        chain = tuple(range(reg_width, reg_width + chain_count))
        u, v = rng.sample(range(1 << reg_width), 2)
        gates = _transposition_gates(u, v, register, chain)
        roles = (INPUT,) * reg_width + (ANCILLA_ZERO,) * chain_count
        circuit = ReversibleCircuit(reg_width + chain_count, tuple(gates), roles)
        for x in range(1 << reg_width):
            bits = BitString("".join("1" if x >> i & 1 else "0" for i in range(reg_width)))
            state = simulate(circuit, bits + BitString.zeros(chain_count))
            got = sum(state[i] << i for i in range(reg_width))
            expected = v if x == u else u if x == v else x
            assert got == expected, (u, v, x)
            assert state[reg_width:].weight() == 0  # chains restored


def test_fig1_composed_with_reverse_restores_input():
    helper = BitString("10")
    comp = build_fig1_compressor(BOOKMARK8, 8, helper)
    c = comp.circuit
    rev = ReversibleCircuit(c.width, c.gates[::-1], c.line_roles)
    for v in (0, 1, 170, 213):
        s = BitString.from_int(v, 8)
        full = comp.run(s)
        assert simulate(rev, full) == comp.assemble_input(s)
