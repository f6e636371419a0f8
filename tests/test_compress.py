"""Codec contracts, the documented token formats, and the estimator.

Expected lengths for the derived cases were computed with the standalone
oracles below (plain phrase-parse arithmetic, no library imports) and are
frozen as literals next to the oracle calls that reproduce them.
"""

import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from landauer import compress
from landauer.bitstring import BitString, decode_uint, encode_self_delimiting
from landauer.compress import (
    BOOKMARK8,
    IDENTITY,
    LZ78,
    XOR,
    CompressionCodec,
    _compressed,
    _lz78_compress,
    _lz78_parse,
    _lz78_walk,
    block_codes,
    default_family,
    encode_with_escape,
    decode_with_escape,
    estimate_complexity,
)
from landauer.demon import run_erase_then_extract, run_extract_then_erase
from landauer.errors import CodecNotInjective, LandauerError, MalformedCode
from landauer.prbox import generate_pr_quadruple, pr_report
from landauer.rng import random_bits, substream
from landauer.thermo import erasure_cost_interval, wv_report

bits_small = st.text(alphabet="01", max_size=256).map(BitString)
EMPTY = BitString()


# --- independent oracles -----------------------------------------------------


def gamma_len(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def lz78_oracle(data: str, helper: str = "") -> tuple[int, int]:
    """(coded bits, token count) for the documented stream format."""
    phrases: dict[str, int] = {}
    cur = ""
    for ch in helper:
        cur += ch
        if cur not in phrases:
            phrases[cur] = len(phrases) + 1
            cur = ""
    bits = gamma_len(len(data) + 1)
    tokens = 0
    cur = ""
    for ch in data:
        cand = cur + ch
        if cand in phrases:
            cur = cand
            continue
        bits += len(phrases).bit_length() + 1
        phrases[cand] = len(phrases) + 1
        tokens += 1
        cur = ""
    if cur:
        bits += len(phrases).bit_length()
        tokens += 1
    return bits, tokens


# --- lz78 ----------------------------------------------------------------------


def test_lz78_empty_input():
    coded = LZ78.compress(BitString(), EMPTY)
    assert coded == BitString("1")  # length header only, zero tokens
    assert LZ78.decompress(coded, EMPTY) == BitString()


def test_lz78_zero_run_phrase_structure():
    # 0^256 parses into phrases of lengths 1,2,...,22 plus a final partial:
    # largest k with k(k+1)/2 <= 256 is 22, leaving 3 bits.
    k = 22
    assert k * (k + 1) // 2 <= 256 < (k + 1) * (k + 2) // 2
    oracle_bits, oracle_tokens = lz78_oracle("0" * 256)
    assert oracle_tokens == k + 1
    assert oracle_bits == 123  # frozen from the oracle
    coded = LZ78.compress(BitString.zeros(256), EMPTY)
    assert len(coded) == oracle_bits
    assert LZ78.decompress(coded, EMPTY) == BitString.zeros(256)


def test_lz78_helper_shortens_code():
    # Warm-up trades longer phrase matches against wider token indices, so
    # the saving is guaranteed only when the data shares structure with the
    # helper; a handful of random strings at these lengths go the other way.
    for s in (
        BitString.zeros(64),
        BitString("0110" * 32),
        random_bits(substream(21, "warm-pinned"), 256),
    ):
        warm = LZ78.compress(s, s)
        cold = LZ78.compress(s, BitString())
        assert len(warm) < len(cold), s
        assert LZ78.decompress(warm, s) == s


def test_lz78_matches_oracle_lengths():
    rng = substream(22, "lengths")
    for n in (1, 2, 7, 33, 200):
        s = random_bits(rng, n)
        h = random_bits(rng, n // 2)
        assert len(LZ78.compress(s, h)) == lz78_oracle(str(s), str(h))[0]


@given(bits_small, st.text(alphabet="01", max_size=128).map(BitString))
@settings(max_examples=150)
def test_lz78_roundtrip(data, helper):
    assert LZ78.decompress(LZ78.compress(data, helper), helper) == data


def test_lz78_bulk_roundtrip_long_strings():
    rng = substream(23, "bulk")
    for _ in range(50):
        n = rng.randrange(1, 4097)
        s = random_bits(rng, n)
        assert LZ78.decompress(LZ78.compress(s, EMPTY), EMPTY) == s


def test_lz78_texts_are_walked_once_and_estimates_write_no_code(monkeypatch):
    walks, writes = [], []

    def walk(text, child):
        walks.append(text)
        return _lz78_walk(text, child)

    def write(data, helper):
        writes.append((data, helper))
        return _lz78_compress(data, helper)

    monkeypatch.setattr(compress, "_lz78_walk", walk)
    monkeypatch.setattr(compress, "LZ78", dataclasses.replace(LZ78, _compress=write))
    _compressed.cache_clear()
    _lz78_parse.cache_clear()
    # helpers a, pair_helper(a, b) and b, with x and y under them; then x, y
    # and a + b under the empty helper, a and b each its warm-up's walk
    pr_report(generate_pr_quadruple(1024, 3))
    assert (len(walks), len(writes)) == (10, 0)
    _lz78_parse.cache_clear()
    walks.clear()
    rng = substream(25, "reuse")
    s, x = random_bits(rng, 512), random_bits(rng, 256)
    assert compress.LZ78.decompress(compress.LZ78.compress(s, x), x) == s  # the decoder reuses x's walk
    assert (len(walks), len(writes)) == (2, 1)


def test_the_lz78_block_pass_walks_its_helper_alone():
    s, x, h = BitString("0110" * 16), BitString("10011"), BitString("0110100111")
    _lz78_parse.cache_clear()
    LZ78.code_length(s, x)  # walks x, then s under x
    block_codes(LZ78, 8, h)
    assert _lz78_parse.cache_info().misses == 3  # the helper's walk; no record per block
    LZ78.code_length(s, x)
    assert _lz78_parse.cache_info().misses == 3  # and it evicted neither earlier record


def _batched(codec, edit=lambda outputs: outputs):
    """codec with _codes set to its own per-value loop, passed through edit."""

    def codes(block, helper):
        return edit([codec._compress(format(v, f"0{block}b"), helper) for v in range(1 << block)])

    return dataclasses.replace(codec, name="batched", _codes=codes)


@pytest.mark.parametrize("edit", [lambda o: o[:-1], lambda o: o + ["0"], lambda o: []], ids=["short", "long", "empty"])
def test_a_batch_of_the_wrong_length_is_refused(edit):
    with pytest.raises(LandauerError, match="batched wrote .* block codes for 16 blocks"):
        block_codes(_batched(IDENTITY, edit), 4, EMPTY)


def test_a_batch_output_that_is_not_bits_is_refused_before_its_decompress():
    decompressed = []

    def decompress(code, helper):
        decompressed.append(code)
        return code

    codec = _batched(dataclasses.replace(IDENTITY, _decompress=decompress), lambda o: o[:6] + ["01x0"] + o[7:])
    with pytest.raises(LandauerError, match="batched compress wrote other than bits: '01x0'"):
        block_codes(codec, 4, EMPTY)
    assert decompressed == [format(v, "04b") for v in range(6)]


def test_a_batch_still_round_trips_every_block():
    # every block takes the raw branch, so only the round trip can find the
    # one block that decompresses wrongly
    broken = dataclasses.replace(IDENTITY, _decompress=lambda code, helper: "1001" if code == "0110" else code)
    with pytest.raises(CodecNotInjective, match="batched fails round-trip on 0110"):
        block_codes(_batched(broken), 4, EMPTY)


def test_lz78_mismatched_helper_never_silently_succeeds():
    rng = substream(24, "mismatch")
    tried = 0
    for _ in range(100):
        s = random_bits(rng, 96)
        h1 = random_bits(rng, 48)
        h2 = random_bits(rng, 48)
        if h1 == h2:
            continue
        tried += 1
        coded = LZ78.compress(s, h1)
        try:
            back = LZ78.decompress(coded, h2)
        except MalformedCode:
            continue
        # decoding against the wrong dictionary must not give the data back
        assert back != s
    assert tried > 0


def test_lz78_malformed_codes():
    with pytest.raises(MalformedCode):
        LZ78.decompress(BitString(), EMPTY)  # no header
    with pytest.raises(MalformedCode):
        LZ78.decompress(BitString("001"), EMPTY)  # truncated header
    coded = LZ78.compress(BitString("10110100"), EMPTY)
    with pytest.raises(MalformedCode):
        LZ78.decompress(coded[:-1], EMPTY)
    with pytest.raises(MalformedCode):
        LZ78.decompress(coded + BitString("0"), EMPTY)


def test_lz78_refusals_name_the_bit_offset():
    coded = LZ78.compress(BitString("10110100"), EMPTY)
    # a 7-bit length header, then tokens at bits 7, 8, 10, 13 and 16
    assert coded == BitString("0001001" "1" "00" "011" "101" "0100")
    with pytest.raises(MalformedCode, match="^lz78: truncated token symbol at bit 19$"):
        LZ78.decompress(coded[:19], EMPTY)  # the last token's index alone
    with pytest.raises(MalformedCode, match="^lz78: truncated token index at bit 16$"):
        LZ78.decompress(coded[:17], EMPTY)
    with pytest.raises(MalformedCode, match="^lz78: index 7 out of range at bit 16$"):
        LZ78.decompress(coded[:16] + BitString("1110"), EMPTY)  # 4 phrases so far


# --- xor ------------------------------------------------------------------------


def test_xor_forced_examples():
    assert XOR.compress(BitString("1010"), BitString("1010")) == BitString("0") + BitString(
        "00101"
    )  # run-length record of length 4
    s = BitString("10110")
    assert XOR.compress(s, BitString()) == BitString("1") + s
    # tail beyond the helper is carried untouched
    coded = XOR.compress(BitString("110011"), BitString("10"))
    assert coded == BitString("1") + BitString("010011")


def test_xor_refuses_trailing_bits_by_offset():
    record = XOR.compress(BitString("0000"), EMPTY)
    assert record == BitString("0" "00101")  # mode bit, then gamma(5)
    with pytest.raises(MalformedCode, match="^xor: trailing bits after run-length record, from bit 6$"):
        XOR.decompress(record + BitString("1"), EMPTY)


def test_xor_run_length_pin_len_256():
    s = random_bits(substream(25, "xorpin"), 256)
    coded = XOR.compress(s, s)
    assert len(coded) == 18  # 1 mode bit + gamma(257); frozen oracle value
    assert len(coded) <= 2 * 256 .bit_length() + 2
    assert XOR.decompress(coded, s) == s


@given(bits_small, bits_small)
@settings(max_examples=150)
def test_xor_roundtrip(data, helper):
    assert XOR.decompress(XOR.compress(data, helper), helper) == data


# --- identity / bookmark8 / raw block --------------------------------------------


def test_identity_examples():
    assert IDENTITY.compress(BitString(), BitString()) == BitString()
    assert IDENTITY.compress(BitString("01"), BitString("1")) == BitString("01")


def test_bookmark8_compresses_the_tiled_helper():
    helper = BitString("10")
    assert BOOKMARK8.compress(BitString("10101010"), helper) == BitString("0")
    assert BOOKMARK8.decompress(BitString("0"), helper) == BitString("10101010")
    other = BitString("11110000")
    assert BOOKMARK8.compress(other, helper) == BitString("1") + other
    # empty helper: no bookmark exists
    assert BOOKMARK8.compress(BitString("10101010"), BitString()) == BitString("1") + BitString(
        "10101010"
    )


def test_xor_refuses_a_literal_code_with_no_one_bit():
    # "1" would decode to the empty string, whose code is the run record "01"
    assert XOR.compress(EMPTY, EMPTY) == BitString("01")
    with pytest.raises(MalformedCode):
        XOR.decompress(BitString("1"), EMPTY)


def test_bookmark8_refuses_a_literal_of_the_bookmarked_tiling():
    # "1" + 0^8 would decode to 0^8, which the helper "0" bookmarks as "0"
    assert BOOKMARK8.compress(BitString.zeros(8), BitString("0")) == BitString("0")
    with pytest.raises(MalformedCode):
        BOOKMARK8.decompress(BitString("1" + "0" * 8), BitString("0"))


def test_decompress_accepts_only_the_code_the_encoder_writes_back():
    # a decoder kernel that ignores the mode bit: every code decodes, one in two is canonical
    lenient = CompressionCodec("lenient", "", lambda d, h: "1" + d, lambda c, h: c[1:])
    assert lenient.decompress(BitString("1101"), EMPTY) == BitString("101")
    with pytest.raises(MalformedCode, match="^lenient: not the code the encoder writes"):
        lenient.decompress(BitString("0101"), EMPTY)


@pytest.mark.parametrize("codec", default_family(), ids=lambda c: c.name)
@given(code=st.text(alphabet="01", max_size=64), helper=st.text(alphabet="01", max_size=16))
@example(code="1", helper="")  # the two plain cases above, drawn rarely at random
@example(code="100000000", helper="0")
@example(code="011000", helper="")  # lz78: decodes 00 as (0, 0) then (1, 0); its code is 01101
@settings(max_examples=300)
def test_decoder_accepts_exactly_its_encoders_image(codec, code, helper):
    if codec is XOR and code.startswith("0"):
        try:
            run = decode_uint(code, 1)[0]
        except MalformedCode:
            run = 0
        assume(run <= 2**16)  # a 64-bit record can declare a run of 2^32 zeros
    code, helper = BitString(code), BitString(helper)
    try:
        data = codec.decompress(code, helper)
    except MalformedCode:
        return
    assert codec.compress(data, helper) == code


# --- registry-wide injectivity ----------------------------------------------------


@pytest.mark.parametrize("codec", default_family(), ids=lambda c: c.name)
def test_registered_codec_injectivity_spot(codec):
    rng = substream(26, "inj", codec.name)
    for _ in range(300):
        data = random_bits(rng, rng.randrange(0, 64))
        helper = random_bits(rng, rng.randrange(0, 32))
        assert codec.decompress(codec.compress(data, helper), helper) == data


# --- estimator ---------------------------------------------------------------------


def test_estimate_empty_data_is_header_only():
    est = estimate_complexity(BitString(), BitString())
    assert est.bits == 1  # identity tag, self-delimited, plus nothing
    assert est.is_upper_bound


def test_estimate_never_exceeds_identity_cost():
    rng = substream(27, "dominance")
    for _ in range(200):
        data = random_bits(rng, rng.randrange(0, 256))
        helper = random_bits(rng, rng.randrange(0, 64))
        est = estimate_complexity(data, helper)
        assert est.bits <= len(data) + 1


def test_estimate_data_equals_helper_takes_log_branch():
    s = random_bits(substream(28, "xorwin"), 256)
    est = estimate_complexity(s, s)
    branch = len(encode_self_delimiting(BitString(XOR.id_bits))) + len(XOR.compress(s, s))
    assert est.bits <= branch
    assert est.bits <= 4 + 18
    assert est.bits < 30  # O(log n) territory, not O(n)


def test_estimate_pseudorandom_kilobit_pin():
    data = random_bits(substream(2024, "pseudorandom"), 1024)
    est = estimate_complexity(data, BitString())
    assert 0.9 * 1024 <= est.bits <= 1024 + 1
    assert est.bits == 1025  # frozen regression value: identity branch wins
    assert est.codec_name == "identity"


def test_helper_monotonicity_for_xor():
    rng = substream(29, "mono")
    for n in (64, 128):
        data = random_bits(rng, n)
        with_self = estimate_complexity(data, data)
        without = estimate_complexity(data, BitString())
        assert with_self.bits < without.bits


def test_lz78_universality_smoke():
    data = BitString("01" * 1024)
    coded = LZ78.compress(data, EMPTY)
    assert len(coded) <= 0.35 * len(data)
    assert len(coded) == lz78_oracle(str(data))[0] == 615  # frozen after oracle run


# --- block encoding with escape -----------------------------------------------------


def test_encode_with_escape_modes():
    helper = BitString("10")
    bookmark = BitString("10101010")
    coded = encode_with_escape(BOOKMARK8, bookmark, helper)
    assert coded == BitString("0") + encode_self_delimiting(BitString("0"))
    raw = encode_with_escape(BOOKMARK8, BitString("11110000"), helper)
    assert raw == BitString("1") + BitString("11110000")
    assert decode_with_escape(BOOKMARK8, coded + BitString.zeros(4), 8, helper) == bookmark
    assert decode_with_escape(BOOKMARK8, raw, 8, helper) == BitString("11110000")


def test_decode_with_escape_refuses_a_code_of_another_length():
    # the xor run-length record of 0^64 fits a 64-bit block in 22 bits
    zeros = BitString.zeros(64)
    coded = encode_with_escape(XOR, zeros, zeros)
    assert len(coded) == 22 and coded[0] == 0
    assert decode_with_escape(XOR, coded, 64, zeros) == zeros
    for data_len in (8, 100):
        with pytest.raises(MalformedCode, match="decodes to 64 bits"):
            decode_with_escape(XOR, coded, data_len, zeros)


def test_decode_with_escape_refuses_a_one_in_the_padding():
    zeros = BitString.zeros(64)
    coded = encode_with_escape(XOR, zeros, zeros)
    assert decode_with_escape(XOR, coded + BitString("0000"), 64, zeros) == zeros
    with pytest.raises(MalformedCode, match="padding after bit 22"):
        decode_with_escape(XOR, coded + BitString("1001"), 64, zeros)
    raw = encode_with_escape(BOOKMARK8, BitString("11110000"), BitString("10"))
    assert decode_with_escape(BOOKMARK8, raw + BitString("0"), 8, BitString("10")) == BitString("11110000")
    with pytest.raises(MalformedCode, match="padding after bit 9"):
        decode_with_escape(BOOKMARK8, raw + BitString("01"), 8, BitString("10"))


def test_decode_with_escape_refuses_a_raw_block_the_compressed_branch_encodes():
    # 0^64 has a 22-bit xor code given 0^64, so its raw code is not the one
    # encode_with_escape writes: accepting it would give 0^64 two codes
    zeros = BitString.zeros(64)
    with pytest.raises(MalformedCode, match="raw block code"):
        decode_with_escape(XOR, BitString("1") + zeros, 64, zeros)


def _accepted(codec, codes, data_len, helper):
    """The codes decode_with_escape accepts, each checked to be the code
    encode_with_escape writes for what it decodes to, then zeros."""
    out = []
    for code in codes:
        try:
            data = decode_with_escape(codec, code, data_len, helper)
        except MalformedCode:
            continue
        want = encode_with_escape(codec, data, helper)
        assert code == want + BitString.zeros(len(code) - len(want)), (codec.name, str(code), str(helper))
        out.append(code)
    return out


def test_decode_with_escape_accepts_exactly_the_padded_codes_its_encoder_writes():
    # 001111 reads as the xor code of 1, which the encoder writes raw as 11
    with pytest.raises(MalformedCode, match="^compressed block code"):
        decode_with_escape(XOR, BitString("001111"), 1, EMPTY)
    # every code of 0-11 bits, for data of 0-6 bits: each value of n bits
    # escapes raw to n + 1 bits, padded here to 11 - n lengths, so 3,020
    # codes over the domain
    codes = [BitString.from_int(v, n) for n in range(12) for v in range(1 << n)]
    for codec in default_family():
        accepted = sum(
            len(_accepted(codec, codes, data_len, BitString(helper)))
            for helper in ("", "0", "10", "011")
            for data_len in range(7)
        )
        assert accepted == 3020, codec.name
    # block 8 under helper 10 reaches the compressed branch: codes of 0-10 bits
    accepted = _accepted(BOOKMARK8, codes[: (1 << 11) - 1], 8, BitString("10"))
    assert len(accepted) == 516
    assert sum(code[0] == 0 for code in accepted) == 6


def test_encode_with_escape_injective_over_block():
    helper = BitString("10")
    seen = set()
    for v in range(256):
        s = BitString.from_int(v, 8)
        coded = encode_with_escape(BOOKMARK8, s, helper)
        padded = str(coded) + "0" * (9 - len(coded))
        assert padded not in seen
        seen.add(padded)
        assert decode_with_escape(BOOKMARK8, BitString(padded), 8, helper) == s


@pytest.mark.parametrize("codec", default_family(), ids=lambda c: c.name)
@given(block=st.integers(1, 8), helper=st.text(alphabet="01", max_size=16).map(BitString))
@settings(max_examples=40, deadline=None)
def test_every_block_domain_has_a_raw_block(codec, block, helper):
    # 2^block distinct self-delimited codes are a prefix-free set, so by the
    # Kraft inequality they fit in block bits only as all of {0,1}^block; but
    # "1" 0^(block-1) is a self-delimited code only for block 1, and "0" never
    # is.  Some block always escapes raw: without the escape no encoding exists
    codes = [encode_with_escape(codec, BitString.from_int(v, block), helper) for v in range(1 << block)]
    assert any(code[0] == 1 for code in codes)


# --- the compress memo ---------------------------------------------------------------


def test_one_compression_per_data_helper_pair():
    calls = []

    def counting(data: str, helper: str) -> str:
        calls.append((data, helper))
        return LZ78._compress(data, helper)

    codec = CompressionCodec("counting", "11", counting, LZ78._decompress)
    S = random_bits(substream(11, "memo"), 600)
    X = S[:200]
    estimate_complexity(S, X)
    wv_report(S, X, codec)
    erasure_cost_interval(S, X, codec)
    run_extract_then_erase(S, X, codec)
    run_erase_then_extract(S, X, codec)
    assert calls == [(str(S), str(X))]


def test_failing_kernels_fail_on_every_call():
    def raising(data: str, helper: str) -> str:
        raise MalformedCode("raising kernel")

    fails = CompressionCodec("fails", "11", raising, LZ78._decompress)
    for _ in range(2):
        with pytest.raises(MalformedCode, match="raising kernel"):
            fails.compress(BitString("01101"), EMPTY)
    bad = CompressionCodec("bad", "11", lambda data, helper: "012", LZ78._decompress)
    for _ in range(3):
        with pytest.raises(ValueError, match="only '0'/'1'"):
            bad.compress(BitString("01"), EMPTY)
