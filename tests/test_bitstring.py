import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauer.bitstring import (
    BitString,
    decode_self_delimiting,
    decode_uint,
    encode_self_delimiting,
    encode_uint,
)
from landauer.errors import MalformedCode

bitstrings = st.text(alphabet="01", max_size=4096).map(BitString)


def test_concat_examples():
    assert BitString("") + BitString("101") == BitString("101")
    assert BitString("1") + BitString("0") == BitString("10")
    assert BitString("000") + BitString("11") == BitString("00011")


def test_basic_value_semantics():
    b = BitString("0101")
    assert len(b) == 4
    assert str(b) == "0101"
    assert b[0] == 0 and b[1] == 1
    assert b[1:3] == BitString("10")
    assert list(b) == [0, 1, 0, 1]
    assert b.weight() == 2
    assert b == BitString([0, 1, 0, 1])
    assert BitString(b) == b
    assert hash(b) == hash(BitString("0101"))
    assert BitString.from_int(5, 4) == BitString("0101")
    assert b.to_int() == 5
    assert BitString.zeros(3) == BitString("000")
    assert b.xor(BitString("0011")) == BitString("0110")


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        BitString("012")
    with pytest.raises(ValueError):
        BitString.from_int(4, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BitString("01").xor(BitString("1")), "xor requires equal lengths"),
        (lambda: encode_uint(-1), "encode_uint takes a non-negative integer"),
    ],
    ids=["xor-lengths", "negative-uint"],
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_encode_empty_is_header_only():
    assert encode_self_delimiting(BitString()) == BitString("1")


def test_encode_single_bit():
    # header for length 1 (gamma of 2) followed by the payload
    assert encode_self_delimiting(BitString("1")) == BitString("0101")


def test_encode_eight_bit_payload_has_seven_bit_header():
    payload = BitString("10110100")
    coded = encode_self_delimiting(payload)
    assert len(coded) == 7 + 8
    assert coded[:7] == encode_uint(8)
    assert coded[7:] == payload


def test_overhead_bound():
    import math

    for n in (0, 1, 2, 7, 8, 255, 4096):
        p = BitString.zeros(n)
        overhead = len(encode_self_delimiting(p)) - n
        assert overhead <= 2 * math.floor(math.log2(n + 1)) + 1


def test_decode_examples():
    assert decode_self_delimiting(encode_self_delimiting(BitString())) == (BitString(), 1)
    coded = encode_self_delimiting(BitString("101")) + BitString("110011")
    payload, used = decode_self_delimiting(coded)
    assert payload == BitString("101")
    assert used == len(encode_self_delimiting(BitString("101")))


@pytest.mark.parametrize("bad", ["0", "01", "010", "00010"])
def test_truncated_headers_raise(bad):
    with pytest.raises(MalformedCode):
        decode_self_delimiting(BitString(bad))


def test_uint_roundtrip():
    for n in range(0, 300):
        coded = encode_uint(n)
        assert decode_uint(coded) == (n, len(coded))


@given(bitstrings)
@settings(max_examples=200)
def test_self_delimiting_roundtrip(p):
    coded = encode_self_delimiting(p)
    assert decode_self_delimiting(coded) == (p, len(coded))


@given(bitstrings, st.text(alphabet="01", max_size=64))
@settings(max_examples=100)
def test_roundtrip_ignores_trailing_junk(p, junk):
    coded = encode_self_delimiting(p) + BitString(junk)
    payload, used = decode_self_delimiting(coded)
    assert payload == p
    assert used == len(coded) - len(junk)


def test_prefix_freeness_exhaustive_up_to_8():
    codes = []
    for n in range(0, 9):
        for v in range(1 << n):
            codes.append(str(encode_self_delimiting(BitString.from_int(v, n))))
    assert len(set(codes)) == len(codes)
    codes.sort()
    for a, b in zip(codes, codes[1:]):
        assert not b.startswith(a), (a, b)
