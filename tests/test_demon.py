from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauer.bitstring import BitString, encode_self_delimiting, encode_uint
from landauer.compress import IDENTITY, LZ78, XOR, default_family
from landauer.demon import (
    BlockEncodeStep,
    CircuitStep,
    EraseStep,
    Tape,
    XorRegionStep,
    replay_backward,
    run_erase_then_extract,
    run_extract,
    run_extract_then_erase,
    run_xor_copy_extract,
)
from landauer.errors import GeneratorMismatch, InvariantViolated, MalformedCode
from landauer.irrev import IrreversibleCircuit, rom_circuit
from landauer.rng import random_bits, substream


def wire_through(n):
    """An n-input netlist whose outputs are its inputs, with no gates."""
    names = tuple(f"x{i}" for i in range(n))
    return IrreversibleCircuit(names, (), names)


def test_extract_zero_run_lz78():
    # frozen oracle: the 52-bit lz78 code of 0^64 self-delimits to 63 bits;
    # with the mode bit the encoding fills the region exactly, so this is
    # also the no-pad, no-work case
    result = run_extract(BitString.zeros(64), BitString(), LZ78)
    assert result.wv_bits == 64 - 64 == 0
    assert result.ec_bits == 0
    coded = BitString("0") + encode_self_delimiting(LZ78.compress(BitString.zeros(64), BitString()))
    assert result.final_tape.s_region == coded[:64]
    assert replay_backward(result) == result.initial_tape


def test_extract_positive_work_at_256():
    result = run_extract(BitString.zeros(256), BitString(), LZ78)
    assert result.wv_bits == 256 - (1 + 123 + 13)  # mode + code + wrapper, oracle-frozen
    assert result.wv_bits == 119
    # freed positions really are zeros on the tape
    assert result.final_tape.s_region[256 - 119 :] == BitString.zeros(119)


def test_extract_incompressible_costs_one_spill_bit():
    s = random_bits(substream(61, "raw"), 8)
    result = run_extract(s, BitString(), IDENTITY)
    assert result.wv_bits == -1
    # raw branch: mode bit then the string itself, spilled bit recorded
    assert result.final_tape.s_region == BitString("1") + s[:7]
    assert result.final_tape.zero_region[0] == s[7]
    assert replay_backward(result) == result.initial_tape


def test_extract_catalyst_untouched():
    rng = substream(62, "cat")
    for codec in default_family():
        s = random_bits(rng, 16)
        x = random_bits(rng, 16)
        result = run_extract(s, x, codec)
        assert result.final_tape.x_region == x


def test_extract_then_erase_conservation_and_final_state():
    rng = substream(63, "ee")
    for codec in default_family():
        for n in (8, 16, 32):
            s = random_bits(rng, n)
            x = random_bits(rng, n // 2)
            result = run_extract_then_erase(s, x, codec)
            assert result.wv_bits + result.ec_bits == n
            assert result.final_tape.s_region == BitString.zeros(n)
            assert result.final_tape.zero_region.weight() == 0
            assert result.final_tape.x_region == x
            assert replay_backward(result) == result.initial_tape


def test_extract_then_erase_identity_raw_accounting():
    s = random_bits(substream(64, "raw8"), 8)
    result = run_extract_then_erase(s, BitString(), IDENTITY)
    # raw mode: the 9-bit code (mode bit + string) is erased in full
    assert result.ec_bits == 9
    assert result.wv_bits == -1
    assert result.wv_bits + result.ec_bits == 8


def test_extract_then_erase_helper_equal_data_is_cheap():
    s = random_bits(substream(65, "sx"), 256)
    result = run_extract_then_erase(s, s, XOR)
    assert result.ec_bits == 28  # frozen: mode bit + self-delimited run-length record
    assert result.wv_bits == 228


def test_erase_then_extract_mirrors_totals():
    rng = substream(66, "order")
    for codec in default_family():
        s = random_bits(rng, 16)
        x = random_bits(rng, 8)
        one = run_extract_then_erase(s, x, codec)
        two = run_erase_then_extract(s, x, codec)
        assert (one.wv_bits, one.ec_bits) == (two.wv_bits, two.ec_bits)
        # same two ledger entries, swapped order
        assert sorted(one.ledger.entries) == sorted(two.ledger.entries)
        assert [lbl for lbl, _ in one.ledger.entries][0].startswith("extract")
        assert [lbl for lbl, _ in two.ledger.entries][0].startswith("erase")
        assert replay_backward(two) == two.initial_tape


def test_erase_then_extract_pin_zero_sixteen():
    result = run_erase_then_extract(BitString.zeros(16), BitString(), LZ78)
    # frozen oracle: a 25-bit lz78 code self-delimits to 34 bits, which
    # overflows a 16-bit region, so the raw escape pays one bit
    assert (result.wv_bits, result.ec_bits) == (-1, 17)
    assert result.final_tape.s_region == BitString.zeros(16)


def test_xor_copy_defining_contract():
    s = BitString("10110100")
    x = BitString("0")
    result = run_xor_copy_extract(s, x, rom_circuit(s, 1))
    assert result.wv_bits == len(s)
    assert result.ec_bits == 0
    assert result.final_tape.s_region == BitString.zeros(8)
    assert result.final_tape.x_region == x
    assert result.final_tape.history_region.weight() == 0
    assert replay_backward(result) == result.initial_tape


def test_xor_copy_with_wire_through_generator():
    # knowledge as a literal copy: X = S, generator wires X through
    s = random_bits(substream(67, "wire"), 12)
    result = run_xor_copy_extract(s, s, wire_through(12))
    assert result.wv_bits == 12
    assert result.final_tape.s_region == BitString.zeros(12)


def test_xor_copy_generator_mismatch():
    s = BitString("1111")
    wrong = rom_circuit(BitString("0000"), 1)
    with pytest.raises(GeneratorMismatch):
        run_xor_copy_extract(s, BitString("0"), wrong)


def test_xor_copy_exhaustive_roms():
    x = BitString("0")
    for v in range(256):
        s = BitString.from_int(v, 8)
        result = run_xor_copy_extract(s, x, rom_circuit(s, 1))
        assert result.wv_bits == 8
        assert result.final_tape.s_region == BitString.zeros(8)
        assert result.final_tape.x_region == x
        assert result.final_tape.history_region.weight() == 0


def test_no_free_lunch():
    # the mode bit keeps wv strictly below len(S) outside the xor-copy case
    rng = substream(68, "lunch")
    for codec in default_family():
        for _ in range(30):
            s = random_bits(rng, 16)
            x = random_bits(rng, 8)
            result = run_extract_then_erase(s, x, codec)
            assert result.wv_bits < 16


def test_empty_string_scenarios():
    for codec in default_family():
        result = run_extract_then_erase(BitString(), BitString("10"), codec)
        assert result.wv_bits + result.ec_bits == 0
        assert replay_backward(result) == result.initial_tape


def test_transcript_reversibility_bulk():
    rng = substream(69, "replay")
    for _ in range(250):
        n = rng.choice((8, 16, 32))
        s = random_bits(rng, n)
        x = random_bits(rng, rng.randrange(0, n))
        codec = rng.choice(default_family())
        for scenario in (run_extract, run_extract_then_erase, run_erase_then_extract):
            result = scenario(s, x, codec)
            assert replay_backward(result) == result.initial_tape


def test_tape_digest_stability():
    tape = Tape(BitString("101"), BitString("01"), BitString.zeros(1), BitString())
    assert tape.digest() == Tape(BitString("101"), BitString("01"), BitString.zeros(1)).digest()
    assert tape.digest() != Tape(BitString("100"), BitString("01"), BitString.zeros(1)).digest()


def _skip_erase(monkeypatch):
    monkeypatch.setattr(EraseStep, "apply", lambda self, tape: tape)


def _skip_xor(monkeypatch):
    monkeypatch.setattr(XorRegionStep, "apply", lambda self, tape: tape)


def _skip_uncompute(monkeypatch):
    # the scenario's second run of its circuit is the uncompute
    calls = []
    apply = CircuitStep.apply

    def first_only(self, tape):
        calls.append(self)
        return apply(self, tape) if len(calls) == 1 else tape

    monkeypatch.setattr(CircuitStep, "apply", first_only)


def _touch_catalyst(monkeypatch):
    apply = BlockEncodeStep.apply

    def flip_x(self, tape):
        tape = apply(self, tape)
        return replace(tape, x_region=tape.x_region.xor(BitString("1" * len(tape.x_region))))

    monkeypatch.setattr(BlockEncodeStep, "apply", flip_x)


def test_block_invert_accepts_only_the_genuine_tape():
    # the 22-bit xor code of 0^64 leaves 42 padding bits in s_region and
    # the spill bit in zero_region, all of which the forward step zeroes
    zeros = BitString.zeros(64)
    step = BlockEncodeStep(XOR)
    initial = Tape(zeros, zeros, BitString.zeros(2))
    genuine = step.apply(initial)
    assert step.invert(genuine) == initial
    spill_set = replace(genuine, zero_region=BitString("10"))
    padding_set = replace(genuine, s_region=genuine.s_region[:63] + BitString("1"))
    for tape in (spill_set, padding_set):
        with pytest.raises(MalformedCode, match="padding"):
            step.invert(tape)
    # the raw code of 0^64, which the compressed branch encodes instead
    raw_set = replace(genuine, s_region=BitString("1") + zeros[:63])
    with pytest.raises(MalformedCode, match="raw block code"):
        step.invert(raw_set)


def test_block_invert_refuses_a_non_canonical_lz78_code():
    # S = X = 0^64: the helper's warm-up holds the phrases 0^1 .. 0^10, so the
    # genuine code opens with the token (10, 0).  The forged code opens with
    # (9, 0), ending the first phrase one bit early; it writes 0^10 again and
    # still decodes to S.
    zeros = BitString.zeros(64)
    step = BlockEncodeStep(LZ78)
    initial = Tape(zeros, zeros, BitString.zeros(2))
    genuine = step.apply(initial)
    assert len(LZ78.compress(zeros, zeros)) == 37
    assert step.invert(genuine) == initial
    tokens = [(9, 0), (11, 0), (12, 0), (13, 0), (14, 0)]
    code = encode_uint(64) + BitString("".join(format(2 * i + b, "05b") for i, b in tokens) + "0100")
    assert len(code) == 42
    coded = BitString("0") + encode_self_delimiting(code)
    forged = replace(genuine, s_region=coded + BitString.zeros(64 - len(coded)))
    with pytest.raises(MalformedCode, match="^lz78: not the code the encoder writes"):
        step.invert(forged)


@st.composite
def near_genuine_tapes(draw):
    """A block-encoded tape with up to two bits of its code region flipped."""
    s, x = draw(st.text("01", max_size=24)), draw(st.text("01", max_size=12))
    codec = draw(st.sampled_from(default_family()))
    tape = BlockEncodeStep(codec).apply(Tape(BitString(s), BitString(x), BitString("01")))
    cells = list(str(tape.s_region) + str(tape.zero_region))
    for i in draw(st.lists(st.integers(0, len(s)), max_size=2)):
        cells[i] = "10"[int(cells[i])]
    text = "".join(cells)
    return codec, replace(tape, s_region=BitString(text[: len(s)]), zero_region=BitString(text[len(s) :]))


@given(near_genuine_tapes())
@settings(max_examples=400)
def test_block_invert_accepts_only_tapes_its_apply_writes(case):
    codec, tape = case
    step = BlockEncodeStep(codec)
    try:
        back = step.invert(tape)
    except MalformedCode:
        return
    assert step.apply(back) == tape


S8, X4 = BitString("10110011"), BitString("0110")


@pytest.mark.parametrize(
    "break_step, scenario, message",
    [
        # the raw escape spills a bit, left in the zero region
        (_skip_erase, lambda: run_extract_then_erase(S8, X4, LZ78), "zero_region"),
        (_skip_erase, lambda: run_erase_then_extract(S8, X4, LZ78), "s_region"),
        (_skip_xor, lambda: run_xor_copy_extract(S8, X4, rom_circuit(S8, 4)), "s_region"),
        (_skip_uncompute, lambda: run_xor_copy_extract(S8, X4, rom_circuit(S8, 4)), "history_region"),
        (_touch_catalyst, lambda: run_extract(S8, X4, LZ78), "catalyst"),
        (_touch_catalyst, lambda: run_extract_then_erase(S8, X4, LZ78), "catalyst"),
    ],
    ids=["extract-erase-dirty", "erase-extract-dirty", "xor-copy-s", "xor-copy-history",
         "extract-catalyst", "extract-erase-catalyst"],
)
def test_broken_invariants_raise_invariant_violated(monkeypatch, break_step, scenario, message):
    # explicit checks, so they also hold under python -O
    break_step(monkeypatch)
    with pytest.raises(InvariantViolated, match=message):
        scenario()
