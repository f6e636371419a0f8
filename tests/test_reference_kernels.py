"""The int- and trie-level kernels against per-character references.

The references below are the straightforward per-character versions of
each kernel (dict-keyed lz78 parse, per-character xor, per-bit box
condition).  Every kernel must return exactly the reference's output.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauer.bitstring import BitString, encode_uint
from landauer.compress import LZ78, XOR, default_family, estimate_complexity, estimate_with_code
from landauer.prbox import CorrelationQuadruple, check_pr_condition, generate_pr_quadruple

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


def ref_gamma(m: int) -> str:
    """Elias gamma of m >= 1: (bit length - 1) zeros, then m in binary."""
    return format(m, "b").zfill(2 * m.bit_length() - 1)


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


# --- kernels equal their references --------------------------------------------------


@given(data_helper())
@example(("", ""))
@example(("", "0110"))
@example(("0110", ""))
@example(("0" * 300, "0"))
@settings(max_examples=300)
def test_lz78_trie_matches_dict_reference(pair):
    data, helper = pair
    code = LZ78.compress(BitString(data), BitString(helper))
    assert str(code) == ref_lz78_compress(data, helper)
    assert LZ78.decompress(code, BitString(helper)) == BitString(data)


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
    data, helper = BitString(pair[0]), BitString(pair[1])
    for codec in default_family():
        est, code = estimate_with_code(data, helper, codec)
        assert est == estimate_complexity(data, helper)
        assert code == codec.compress(data, helper)
    # a codec outside the family is still compressed, once
    est, code = estimate_with_code(data, helper, LZ78, family=default_family()[:1])
    assert est == estimate_complexity(data, helper, default_family()[:1])
    assert code == LZ78.compress(data, helper)


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
        (BitString.ones(len(b_text)), "1" * len(b_text)),
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
    for text in ("012", "2", "01 ", "0b1"):
        with pytest.raises(ValueError):
            BitString(text)
    with pytest.raises(ValueError):
        BitString("01") + "012"
