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
    cube_rows,
    not_gate,
    permutation_table,
    run_states,
    simulate,
)
from landauer.compress import (
    BOOKMARK8,
    IDENTITY,
    LZ78,
    REGISTRY,
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
    rom_circuit,
)
from landauer.rng import substream
from landauer.synth import (
    BlockTable,
    CompiledReversible,
    VerificationReport,
    bennett_compile,
    build_fig1_compressor,
    fig1_block_oracle,
    verify_compiled,
)
from test_reference_kernels import _MARKS, MARKS, circuits_of_width, netlists


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


def test_bennett_compile_gives_every_gate_a_line_even_outside_the_output_cone():
    src = IrreversibleCircuit(
        ("a", "b"),
        (LogicGate("dead", "and", ("a", "b")), LogicGate("live", "xor", ("a", "b")), LogicGate("tail", "not", ("live",))),
        ("live",),
    )
    assert len(src.cone) == 1
    comp = bennett_compile(src)
    assert len(comp.ancilla_lines) == len(src.gates)
    assert verify_compiled(comp, lambda x: evaluate(src, x)).ok


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
    its cap of 16 recorded cases of each kind, and the first case of all
    as (input, line, kind): a mismatch names its lowest differing result
    line, or no line when the two results differ in length."""
    keep = 16
    k = len(compiled.input_lines)
    mismatches, violations, seen, first = [], [], set(), None
    for x in range(1 << k):
        data = BitString.from_int(x, k)
        state = compiled.run(data)
        got, want = compiled.result(state), oracle(data)
        mismatch = []
        if got != want:
            if len(mismatches) < keep:
                mismatches.append((data, got, want))
            if len(got) != len(want):
                mismatch.append((data, None, "result width differs"))
            else:
                lines = [line for line, a, b in zip(compiled.result_lines, got, want) if a != b]
                mismatch.append((data, min(lines), "result differs"))
        found = [(data, line, "ancilla not restored") for line in compiled.ancilla_lines if state[line] != 0]
        found += [(data, line, "constant line flipped") for line in compiled.const_one_lines if state[line] != 1]
        if compiled.helper_lines and compiled.pick(state, compiled.helper_lines) != compiled.helper_value:
            found.append((data, compiled.helper_lines[0], "helper changed"))
        violations += found[: keep - len(violations)]
        first = first or (mismatch + found or [None])[0]
        seen.add(str(state))
    assert len(seen) == 1 << k  # distinct inputs, distinct full states
    return VerificationReport(1 << k, tuple(mismatches), tuple(violations), first)


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


def without_gate(compiled, n):
    c = compiled.circuit
    return replace(compiled, circuit=ReversibleCircuit(c.width, c.gates[:n] + c.gates[n + 1 :], c.line_roles))


def differing_on(table, v, position):
    """The table with one bit of the code of data value v flipped."""
    code = table.codes[v]
    flipped = code[:position] + "10"[int(code[position])] + code[position + 1 :]
    return replace(table, codes=table.codes[:v] + (flipped,) + table.codes[v + 1 :])


def assert_both_paths_equal_the_reference(compiled, table):
    report = verify_compiled(compiled, table)
    assert report == verify_compiled(compiled, lambda d: table(d)) == verify_one_state_at_a_time(compiled, table)
    return report


@pytest.mark.parametrize("codec", REGISTRY.values(), ids=lambda c: c.name)
def test_the_table_path_equals_the_per_input_path_and_the_scalar_reference(codec):
    """Fig. 1 builds at blocks 1-8, whole and broken: an extra CNOT into
    the last result line, a touched helper line, a dropped gate, and a
    table that differs on one input in its last line."""
    broken = 0
    for block in range(1, 9):
        for helper in ("1", "0110"):
            comp = build_fig1_compressor(codec, block, BitString(helper))
            table = fig1_block_oracle(codec, block, BitString(helper))
            assert assert_both_paths_equal_the_reference(comp, table).ok
            register = comp.result_lines
            variants = [
                (with_gates(comp, [cnot(register[0], register[-1])]), table),
                (with_gates(comp, [cnot(register[0], comp.helper_lines[-1])]), table),
                (without_gate(comp, len(comp.circuit.gates) // 2), table),
                (comp, differing_on(table, (1 << block) // 3, block)),
            ]
            for compiled, reference in variants:
                broken += not assert_both_paths_equal_the_reference(compiled, reference).ok
    assert broken == 8 * 2 * 4


@pytest.mark.parametrize(
    "compiled, table",
    [
        (build_fig1_compressor(XOR, 4, BitString("10")), fig1_block_oracle(XOR, 3, BitString("10"))),
        # the table's first two codes are what the lines carry: only the block check refuses it
        (
            CompiledReversible(
                ReversibleCircuit(3, (cnot(0, 1), cnot(0, 2)), (INPUT, OUTPUT_ALIAS, OUTPUT_ALIAS)),
                result_lines=(0, 1, 2),
            ),
            BlockTable(2, ("000", "111", "000", "000")),
        ),
    ],
    ids=["fig1-block-4", "one-input-line"],
)
def test_a_table_of_another_block_is_refused_after_the_sweep_ceiling(compiled, table, monkeypatch):
    k = len(compiled.input_lines)
    message = f"expected {table.block} data bits, got {k}"
    for reference in (table, lambda d: table(d)):
        with pytest.raises(WidthMismatch, match=message):
            verify_compiled(compiled, reference)
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", str(k - 1))
    with pytest.raises(DomainTooLarge):
        verify_compiled(compiled, table)


def test_a_table_against_a_result_register_of_another_width_reports_every_input():
    helper = BitString("01")
    comp = build_fig1_compressor(BOOKMARK8, 4, helper)
    table = fig1_block_oracle(BOOKMARK8, 4, helper)
    for register in (comp.result_lines[:-1], comp.result_lines + comp.helper_lines[:1]):
        report = assert_both_paths_equal_the_reference(replace(comp, result_lines=register), table)
        assert [case[0] for case in report.mismatches] == [BitString.from_int(x, 4) for x in range(16)]
        assert report.first_offender == (BitString("0000"), None, "result width differs")


def test_a_table_with_codes_of_another_width_reports_as_the_per_input_path():
    comp = build_fig1_compressor(XOR, 2, BitString("1"))
    report = assert_both_paths_equal_the_reference(comp, BlockTable(2, ("100", "1010", "11", "111")))
    assert [case[0] for case in report.mismatches] == [BitString("01"), BitString("10")]
    assert report.first_offender == (BitString("01"), None, "result width differs")


@pytest.mark.parametrize(
    "block, codes", [(2, ("100", "101", "110")), (2, ("100", "101", "110", "111", "000")), (2, ()), (-1, ())]
)
def test_a_table_of_another_code_count_is_refused(block, codes):
    with pytest.raises(WidthMismatch, match=f"a table of {len(codes)} codes for {block}-bit blocks"):
        BlockTable(block, codes)


@pytest.mark.parametrize("wide, flipped", [((1, 6), 3), ((5, 7), 3), ((0, 2), 7)])
def test_wants_of_mixed_widths_report_as_the_scalar_reference(wide, flipped):
    """A map whose want has another width on the inputs in `wide`, one
    longer and one shorter, below and above the input whose want differs
    in its last bit."""
    comp = bennett_compile(wire_through(3))

    def oracle(data):
        x = data.to_int()
        if x in wide:
            return data + BitString("0") if x == wide[0] else data[:1]
        return BitString.from_int(x ^ (x == flipped), 3)

    report = verify_compiled(comp, oracle)
    assert report == verify_one_state_at_a_time(comp, oracle)
    assert [case[0].to_int() for case in report.mismatches] == sorted(wide + (flipped,))
    if wide[0] < flipped:
        assert report.first_offender == (BitString.from_int(wide[0], 3), None, "result width differs")
    else:
        assert report.first_offender == (BitString.from_int(flipped, 3), comp.output_lines[-1], "result differs")


def test_first_offender_names_the_input_and_line_of_a_dropped_uncompute_gate():
    src = IrreversibleCircuit(("a", "b"), (LogicGate("g", AND, ("a", "b")),), ("g",))
    comp = bennett_compile(src)
    assert comp.circuit.gates[-1] == comp.circuit.gates[0]  # the uncompute of the one Toffoli
    oracle = lambda x: evaluate(src, x)
    assert verify_compiled(comp, oracle).first_offender is None
    dropped = without_gate(comp, len(comp.circuit.gates) - 1)
    report = verify_compiled(dropped, oracle)
    assert report.first_offender == (BitString("11"), comp.ancilla_lines[0], "ancilla not restored")
    assert not report.mismatches and report == verify_one_state_at_a_time(dropped, oracle)


def test_first_offender_names_the_input_and_first_line_a_table_differs_on():
    helper = BitString("10")
    comp = build_fig1_compressor(BOOKMARK8, 8, helper)
    table = fig1_block_oracle(BOOKMARK8, 8, helper)
    wrong = differing_on(differing_on(table, 37, 6), 37, 3)
    report = assert_both_paths_equal_the_reference(comp, wrong)
    data = BitString.from_int(37, 8)
    assert report.mismatches == ((data, table(data), wrong(data)),)
    assert report.first_offender == (data, 3, "result differs")
    # within one input the mismatch comes first, then that input's violations
    touched = with_gates(comp, [cnot(comp.result_lines[0], comp.helper_lines[0])])
    report = assert_both_paths_equal_the_reference(touched, wrong)
    assert report.first_offender == (BitString.from_int(0, 8), comp.helper_lines[0], "helper changed")
    report = assert_both_paths_equal_the_reference(touched, differing_on(table, 0, 8))
    assert report.first_offender == (BitString.from_int(0, 8), 8, "result differs")


def fibers(circuit, swept_lines, result_lines):
    """Every state of the swept lines (the rest 0) run as one batch of
    run_states rows, grouped by the result lines' values: each result maps
    to the other lines' final states, in input order."""
    rows = [0] * circuit.width
    for line, row in zip(swept_lines, cube_rows(len(swept_lines))):
        rows[line] = row
    out = run_states(circuit, rows, 1 << len(swept_lines))
    rest_lines = [i for i in range(circuit.width) if i not in result_lines]
    grouped = {}
    for x in range(1 << len(swept_lines)):
        result = tuple(out[i] >> x & 1 for i in result_lines)
        grouped.setdefault(result, []).append(tuple(out[i] >> x & 1 for i in rest_lines))
    return grouped


def largest_fiber_told_apart(grouped):
    """The largest fiber, after checking that the other lines tell the
    inputs of each fiber apart and so take at least that many states."""
    for rest in grouped.values():
        assert len(set(rest)) == len(rest)
    largest = max(map(len, grouped.values()))
    assert len({r for rest in grouped.values() for r in rest}) >= largest
    return largest


def test_simulation_resilience_bennett_builds_keep_each_fiber_apart():
    """A reversible simulation of a lossy netlist keeps, on its other
    lines, what tells apart the inputs that its result lines merge."""
    rng = substream(35, "resilience")
    nets = [IrreversibleCircuit(("a", "b"), (LogicGate("g", AND, ("a", "b")),), ("g",)), rom_circuit(BitString("101"), 4)]
    nets += [random_netlist(rng.randint(1, 6), rng.randint(0, 10), rng) for _ in range(10)]
    largest = []
    for net in nets:
        comp = bennett_compile(net)
        largest.append(largest_fiber_told_apart(fibers(comp.circuit, comp.input_lines, comp.result_lines)))
    assert largest[:2] == [3, 16]  # AND merges three inputs into 0; the ROM merges all 16


@given(circuits_of_width(st.integers(1, 8)), st.integers(0, 255))
@example(ReversibleCircuit(2, (cnot(0, 1),)), 1)
@settings(max_examples=100, deadline=None)
def test_simulation_resilience_any_admitted_circuit_keeps_each_fiber_apart(c, pick):
    """Every admitted circuit is a bijection: whichever lines are read as
    its result, the others tell apart every input of each fiber."""
    result_lines = tuple(i for i in range(c.width) if pick >> i & 1)
    largest_fiber_told_apart(fibers(c, tuple(range(c.width)), result_lines))


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


@pytest.mark.parametrize("helper", ["10", "011", "0110"])
@pytest.mark.parametrize("codec", [XOR, LZ78, IDENTITY], ids=lambda c: c.name)
def test_fig1_all_raw_block8_is_one_mode_flip_without_chain_ancillas(codec, helper):
    # no block compresses, so nothing moves but the mode line
    comp = build_fig1_compressor(codec, 8, BitString(helper))
    assert comp.circuit.gates == (not_gate(0),)
    assert comp.ancilla_lines == ()
    assert comp.circuit.width == 9 + len(helper)


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
