"""Data compression with helper and the compressor-family description-length
estimator.

Every codec is a pair (compress, decompress) over bit strings such that
(data, helper) -> (compress(data, helper), helper) is injective, i.e.
decompress(compress(data, helper), helper) == data for all inputs.  Any
such codec yields a work-value lower bound; the estimator takes the best
over the four registered codecs (default_family) and is always an upper
bound on true description length.  encode_with_escape always keeps the
raw escape, which the tape scenarios need for wv + ec = len(S) and the
Fig. 1 build needs for a bijective block map.

A decoder accepts a code only if its encoder writes it back:
CompressionCodec.decompress compresses the kernel's output again and
raises MalformedCode unless that gives the input code, so every codec
maps (data, helper) one to one onto the codes that decode, and
decode_with_escape accepts only the zero-padded code encode_with_escape
writes.  A decompress kernel refuses only a code it cannot decode, or
one it can refuse before building a large output.

Kernels must be pure functions of (data, helper), so their work is
reused, in two places only.  CompressionCodec.compress keeps its last 16
distinct (kernel, data, helper) calls and their codes alive: callers ask
compress again rather than pass a code along, and decompress's re-encode
of data just compressed is a memo hit.  A raising kernel is called again
every time; decompress itself is not cached.  Under the codes, lz78 keeps
the parse of its last 8 distinct (data, helper) pairs (_lz78_parse): a
helper is walked once, as data under the empty helper, for the encoder
and the decoder alike, so a string that is first a helper and then data
is walked once.  The Fig. 1 block pass, block_codes, runs outside the
memo: one _codes call (lz78, xor) and one decompress call per block.

An estimate reads only a code's length, so it asks each codec for
code_length, which is len(compress(...)) unless the codec sets _length:
a function of (data, helper) that must equal that length on every input.
Only lz78 sets it, and computes the length from the cached parse without
writing a token.  encode_with_escape and the tape scenarios write codes,
so they call compress.

Registered codecs:

  identity   output = input.  Baseline; 1-bit family header.
  lz78       dictionary parse into (index, next-bit) tokens; the helper
             pre-seeds the dictionary (the decompressor replays the same
             warm-up, so injectivity is preserved).
  xor        bitwise XOR with the helper prefix; an all-zero payload
             collapses to a run-length record of O(log n) bits.  This is
             the codec realization of "the helper is a copy of the data".
  bookmark8  demo codec: the 8-bit tiling of the helper compresses to a
             single bit, everything else is passed through with a 1-bit
             flag.  Exists to exercise the compressed branch of block
             encodings at desk scale.

Token format (lz78): gamma header for the data length, then tokens of
(index, next bit) with the index field exactly ceil(log2(D+1)) bits where
D is the current dictionary size; a trailing index-only token encodes a
final partial phrase.  The format is bit-exact and documented so other
implementations can reproduce it.  A phrase's index is its node id in
the phrase trie (0 is the empty phrase, ids in order of creation, helper
phrases first), which is the same numbering as a phrase dictionary built
in parse order, so the bitstream is unchanged by the trie kernel.  The
index field widens only when D reaches a power of two, so the encoder
writes the tokens in runs of equal width, one format call for them all;
the token format is unchanged by that.  The decoder builds its phrase
table from the tokens of the helper's parse (a phrase's token comes
after its parent's) and appends one phrase per code token; a token that
writes a phrase the table already holds decodes, and the re-encode in
decompress refuses it.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

from .bitstring import (
    _TO_ROWS,
    BitString,
    _gamma,
    _trusted,
    decode_self_delimiting,
    decode_uint,
    encode_uint,
)
from .circuits import check_sweep
from .errors import CodecNotInjective, LandauerError, MalformedCode


@dataclass(frozen=True)
class CompressionCodec:
    """Named compression-with-helper pair.

    id_bits is a short unique tag charged by the estimator so that every
    estimate is the length of a genuine self-contained description.

    _compress and _decompress must be pure functions of (data, helper):
    compress reuses the codes of its last 16 distinct (kernel, data,
    helper) calls, and keeps those triples and their kernels alive.
    _length, when set, must equal len(_compress(data, helper)) on every
    input: code_length returns it without writing the code.  _codes, when
    set, must return [_compress(format(v, f"0{block}b"), helper) for v in
    range(1 << block)], which block_codes then reads in one call.
    """

    name: str
    id_bits: str
    _compress: Callable[[str, str], str]
    _decompress: Callable[[str, str], str]
    _length: Callable[[str, str], int] | None = None
    _codes: Callable[[int, str], list[str]] | None = None

    def compress(self, data: BitString, helper: BitString) -> BitString:
        return _compressed(self._compress, str(data), str(helper))

    def code_length(self, data: BitString, helper: BitString) -> int:
        """len(self.compress(data, helper)), written only when _length is unset."""
        if self._length is not None:
            return self._length(str(data), str(helper))
        return len(self.compress(data, helper))

    def decompress(self, code: BitString, helper: BitString) -> BitString:
        data = BitString(self._decompress(str(code), str(helper)))
        if self.compress(data, helper) != code:  # the one canonical check of a codec code
            raise MalformedCode(f"{self.name}: not the code the encoder writes for the {len(data)} bits it decodes to")
        return data


@functools.lru_cache(maxsize=16)
def _compressed(kernel: Callable[[str, str], str], data: str, helper: str) -> BitString:
    # lru_cache stores no exception, so a failing kernel fails on every call
    return BitString(kernel(data, helper))


# --- identity -----------------------------------------------------------------


def _identity_compress(data: str, helper: str) -> str:
    return data


def _identity_decompress(code: str, helper: str) -> str:
    return code


# --- LZ78 with dictionary warm-up ---------------------------------------------


def _lz78_walk(text: str, child: list[int]) -> tuple[list[int], int]:
    """Parse `text` on the phrase trie `child`, growing it: the token
    k = 2*index + bit of each new phrase, in order, and the final slot
    (2 * the node of a final partial phrase, 0 when there is none).

    child[2*node + bit] is 2 * (id of that child phrase), 0 when absent:
    node 0 is the empty phrase, ids run in parse order, and a child's
    doubled id is where its own two child slots start.
    """
    tokens = []
    slot = 0  # 2 * current node
    for bit in text.encode().translate(_TO_ROWS):
        k = slot + bit
        slot = child[k]
        if not slot:  # new phrase; the parse restarts at the empty phrase
            tokens.append(k)
            child[k] = len(child)
            child += (0, 0)
    return tokens, slot


@functools.lru_cache(maxsize=8)
def _lz78_parse(data: str, helper: str) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """(child, tokens, final slot, helper dictionary size) of the lz78
    parse of `data` under `helper`, read-only.  The trie is kept only
    under the empty helper: it is the warm-up that a walk under `data` as
    helper starts from.  Under any other helper child is ()."""
    child = list(_lz78_parse(helper, "")[0]) if helper else [0, 0]  # the walk grows its own copy
    size = len(child) // 2 - 1
    tokens, slot = _lz78_walk(data, child)
    return () if helper else tuple(child), tuple(tokens), slot, size


def _lz78_length(data: str, helper: str) -> int:
    """len(_lz78_compress(data, helper)) from the parse alone: the gamma
    header, then each token's index field and next bit, then the index of
    a final partial phrase."""
    _, tokens, slot, size = _lz78_parse(data, helper)
    end = size + len(tokens)
    # gamma(n + 1) has 2 * (n + 1).bit_length() - 1 bits; a token written at
    # dictionary size D has D.bit_length() + 1, and over D in range(size, end)
    # the index widths sum to S(end) - S(size), where S(n) = b*n - 2^b + 1 with
    # b = (n - 1).bit_length() for n >= 1, and S(0) = S(1) = 0
    e, z = end or 1, size or 1
    b, c = (e - 1).bit_length(), (z - 1).bit_length()
    length = 2 * (len(data) + 1).bit_length() - 1 + len(tokens) + b * e - (1 << b) - c * z + (1 << c)
    if slot:
        length += end.bit_length()
    return length


def _lz78_template(size: int, n: int, count: int, partial: bool) -> str:
    """Format template of an lz78 code of n bits: `count` tokens after `size` helper
    phrases, then a final partial phrase's index if `partial` (else format drops it)."""
    # token (index, bit) is k = 2*index + bit in size.bit_length() + 1 bits;
    # the width changes only when size reaches a power of two, so the
    # template holds one repeated field per run of equal width
    template = [_gamma(n + 1)]
    while count:
        w = size.bit_length()
        run = min((1 << w) - size, count)
        template.append(f"{{:0{w + 1}b}}" * run)
        size += run
        count -= run
    if partial:  # final partial phrase: index only, no next bit
        template.append(f"{{:0{size.bit_length()}b}}")
    return "".join(template)


def _lz78_compress(data: str, helper: str) -> str:
    _, tokens, slot, size = _lz78_parse(data, helper)
    return _lz78_template(size, len(data), len(tokens), slot > 0).format(*tokens, slot >> 1)


def _lz78_codes(block: int, helper: str) -> list[str]:
    """_lz78_compress of every `block`-bit value in value order, from one
    depth-first walk of the tree of values on one copy of the helper's trie."""
    child = list(_lz78_parse(helper, "")[0]) if helper else [0, 0]
    size, tokens, codes = len(child) // 2 - 1, [], []
    templates: dict[tuple[int, bool], str] = {}  # by (token count, final partial phrase), this call only

    def descend(depth: int, slot: int) -> None:
        if depth == block:
            key = (len(tokens), slot > 0)
            if key not in templates:
                templates[key] = _lz78_template(size, block, *key)
            codes.append(templates[key].format(*tokens, slot >> 1))
            return
        for k in (slot, slot + 1):
            if child[k]:
                descend(depth + 1, child[k])
            else:  # a new phrase: add it, parse on from the empty phrase, then remove it
                tokens.append(k)
                child[k] = len(child)
                child.extend((0, 0))
                descend(depth + 1, 0)
                del child[-2:]
                child[k] = 0
                tokens.pop()

    descend(0, 0)
    return codes


def _lz78_decompress(code: str, helper: str) -> str:
    try:
        n, pos = decode_uint(code)
    except MalformedCode:
        raise MalformedCode("lz78: bad length header")
    table = [""]
    for k in _lz78_parse(helper, "")[1]:  # a parent's token comes before its child's
        table.append(table[k >> 1] + "01"[k & 1])
    size = len(table) - 1
    produced: list[str] = []
    left = n  # bits still to produce
    end = len(code)
    while left:
        w = size.bit_length()
        stop = pos + w + 1  # a full token: w index bits, then the next bit
        if stop <= end:
            k = int(code[pos:stop], 2)
            idx = k >> 1
        elif stop - 1 == end:  # room for an index-only final token alone
            idx = int(code[pos:end], 2) if w else 0
            k = -1
        else:
            raise MalformedCode(f"lz78: truncated token index at bit {pos}")
        if idx > size:
            raise MalformedCode(f"lz78: index {idx} out of range at bit {pos}")
        phrase = table[idx]
        if len(phrase) >= left:
            produced.append(phrase)  # final partial phrase
            break
        if k < 0:
            raise MalformedCode(f"lz78: truncated token symbol at bit {end}")
        size += 1
        phrase += "01"[k & 1]
        table.append(phrase)
        produced.append(phrase)
        left -= len(phrase)
        pos = stop
    return "".join(produced)


# --- XOR with helper prefix ---------------------------------------------------


def _xor_payload(data: str, helper: str) -> str:
    k = min(len(data), len(helper))
    if not k:
        return data
    head = int(data[:k], 2) ^ int(helper[:k], 2)
    return format(head, f"0{k}b") + data[k:]


def _xor_compress(data: str, helper: str) -> str:
    payload = _xor_payload(data, helper)
    if "1" not in payload:
        # run-length branch: the whole payload is zeros
        return "0" + str(encode_uint(len(data)))
    return "1" + payload


def _xor_codes(block: int, helper: str) -> list[str]:
    """_xor_compress of each `block`-bit value v in order: payload v ^ mask, run-length at v == mask."""
    mask = int(helper[:block] or "0", 2) << max(block - len(helper), 0)
    codes = [f"1{v ^ mask:0{block}b}" for v in range(1 << block)]
    codes[mask] = "0" + str(encode_uint(block))
    return codes


def _xor_decompress(code: str, helper: str) -> str:
    if not code:
        raise MalformedCode("xor: empty code")
    if code[0] == "0":
        n, used = decode_uint(code, 1)
        if 1 + used != len(code):
            raise MalformedCode(f"xor: trailing bits after run-length record, from bit {1 + used}")
        if n > sys.maxsize:  # no bit string is that long, so no xor code says so
            raise MalformedCode(f"xor: run length {n} exceeds any bit string")
        payload = "0" * n
    else:
        payload = code[1:]
    return _xor_payload(payload, helper)  # xor is an involution


# --- bookmark8 ----------------------------------------------------------------

_BOOKMARK_LEN = 8


def _tile(helper: str, n: int) -> str:
    return (helper * (n // len(helper) + 1))[:n]


def _bookmark_compress(data: str, helper: str) -> str:
    if helper and data == _tile(helper, _BOOKMARK_LEN):
        return "0"
    return "1" + data


def _bookmark_decompress(code: str, helper: str) -> str:
    if code == "0":
        if not helper:
            raise MalformedCode("bookmark8: bookmark code with empty helper")
        return _tile(helper, _BOOKMARK_LEN)
    if not code or code[0] != "1":
        raise MalformedCode("bookmark8: bad mode bit")
    return code[1:]


# --- registry -----------------------------------------------------------------

IDENTITY = CompressionCodec("identity", "", _identity_compress, _identity_decompress)
LZ78 = CompressionCodec("lz78", "0", _lz78_compress, _lz78_decompress, _lz78_length, _lz78_codes)
XOR = CompressionCodec("xor", "1", _xor_compress, _xor_decompress, _codes=_xor_codes)
BOOKMARK8 = CompressionCodec("bookmark8", "00", _bookmark_compress, _bookmark_decompress)


def default_family() -> tuple[CompressionCodec, ...]:
    """The registered codecs, identity first: the estimator's family."""
    return (IDENTITY, LZ78, XOR, BOOKMARK8)


REGISTRY: dict[str, CompressionCodec] = {c.name: c for c in default_family()}


# --- description-length estimator ----------------------------------------------


@dataclass(frozen=True)
class ComplexityEstimate:
    """Upper estimate of conditional description length, in bits.

    bits = min over the family of len(self-delimited codec tag || code).
    This is an upper bound on the true value; it can never certify a
    lower bound.
    """

    bits: int
    codec_name: str
    is_upper_bound: ClassVar[bool] = True


def estimate_complexity(data: BitString, helper: BitString) -> ComplexityEstimate:
    """The cheapest code over default_family(), the first one on a tie."""
    best = None
    for c in default_family():
        # the tag is charged self-delimited: gamma(len + 1) then the tag
        cost = len(encode_uint(len(c.id_bits))) + len(c.id_bits) + c.code_length(data, helper)
        if best is None or cost < best.bits:
            best = ComplexityEstimate(cost, c.name)
    return best


# --- block encoding with raw escape ---------------------------------------------


def _escape(code: str, data: str) -> str:
    """The one escape rule, on the text of `data` and its codec output:
    "0" || gamma(len(code) + 1) || code when that fits in len(data) bits
    after the mode bit, else "1" || data."""
    n = len(code) + 1
    if 2 * n.bit_length() + n - 2 <= len(data):  # gamma(n) has 2 * bitlen(n) - 1 bits
        return "0" + str(encode_uint(n - 1)) + code
    return "1" + data


def encode_with_escape(codec: CompressionCodec, data: BitString, helper: BitString) -> BitString:
    """Encode `data` into at most len(data)+1 bits, mode bit first.

    The compressed branch is "0" || self_delimited(codec output) and is
    taken when it fits in len(data) bits after the mode bit; otherwise the
    raw branch "1" || data is used.

    The branch structure keeps data -> code injective for every codec
    that satisfies the round-trip contract.
    """
    return _trusted(_escape(str(codec.compress(data, helper)), str(data)))


def decode_with_escape(
    codec: CompressionCodec,
    coded: BitString,
    data_len: int,
    helper: BitString,
) -> BitString:
    """Invert encode_with_escape; `coded` may carry zero padding at the end.

    Accepts only the zero-padded code encode_with_escape writes: the data
    the mode bit's branch gives is encoded again (a compress-memo hit after
    a compressed branch).  Raises MalformedCode for every other code.
    """
    text = str(coded)
    if not text:
        raise MalformedCode("empty block code")
    raw = text[0] == "1"
    if raw:
        data = _trusted(text[1 : 1 + data_len])
    else:
        data = codec.decompress(decode_self_delimiting(coded, 1)[0], helper)
    if len(data) != data_len:
        raise MalformedCode(f"block code decodes to {len(data)} bits, expected {data_len}")
    code = str(encode_with_escape(codec, data, helper))
    if not text.startswith(code):  # the one canonical check of a block code
        branch = "raw" if raw else "compressed"
        raise MalformedCode(f"{branch} block code is not the one encode_with_escape writes for its {data_len} bits")
    if "1" in text[len(code) :]:
        raise MalformedCode(f"block code padding after bit {len(code)} is not all zero")
    return data


def block_codes(codec: CompressionCodec, block: int, helper: BitString) -> list[str]:
    """The escape code of each `block`-bit value under `helper`, as text in
    value order, after its round trip, outside the compress memo: one _codes
    call if the codec sets it, else one compress per value, and one decompress
    per value.  A block below 1 raises LandauerError and a block above the
    sweep ceiling DomainTooLarge, both before any codec call.  A _codes list
    of the wrong length or a kernel output other than bits raises
    LandauerError (a compress output before its decompress), and a failed
    round trip CodecNotInjective."""
    if block < 1:
        raise LandauerError("block must be at least 1")
    check_sweep(f"a block of {block} bits", lines=block)
    compress, decompress = codec._compress, codec._decompress
    h = str(helper)
    width = f"0{block}b"
    batch = None if codec._codes is None else codec._codes(block, h)
    if batch is not None and len(batch) != 1 << block:
        raise LandauerError(f"{codec.name} wrote {len(batch)} block codes for {1 << block} blocks")
    codes = []
    for v in range(1 << block):
        d = format(v, width)
        code = compress(d, h) if batch is None else batch[v]
        if code.strip("01"):
            raise LandauerError(f"{codec.name} compress wrote other than bits: {code!r}")
        back = decompress(code, h)
        if back != d:
            if back.strip("01"):
                raise LandauerError(f"{codec.name} decompress wrote other than bits: {back!r}")
            raise CodecNotInjective(f"{codec.name} fails round-trip on {d}")
        codes.append(_escape(code, d))
    return codes
