"""Bit strings and self-delimiting (prefix-free) encodings.

BitString is the universal currency of the toolkit: raw data, helpers,
circuit states and codec output are all finite bit strings.  The textual
rendering is most-significant-first, as a plain '0'/'1' character string,
which is also the serialized form used in files and JSON.

The self-delimiting wrapper is Elias gamma on (payload length + 1): a
prefix-free header that lets variable-length codec output be recovered
from a zero-padded register or tape, at an overhead of at most
2*floor(log2(len+1)) + 1 bits.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import MalformedCode

BitsLike = Union[str, "BitString", Iterable[int]]

# a bit string's '0'/'1' characters <-> its rows of ints 0/1, by bytes.translate
_TO_ROWS = bytes.maketrans(b"01", b"\x00\x01")
_FROM_ROWS = bytes.maketrans(b"\x00\x01", b"01")


class BitString:
    """Immutable finite sequence of bits.

    Values are hashable and safe to share between workers.  Indexing
    returns ints (0/1); slicing returns a BitString.
    """

    __slots__ = ("_s",)

    def __init__(self, bits: BitsLike = ""):
        if isinstance(bits, str):
            s = bits
        else:
            s = "".join("1" if b else "0" for b in bits)
        # one C pass; "replace" maps non-ASCII (lone surrogates too) to "?"
        if s.encode("ascii", "replace").translate(None, b"01"):
            raise ValueError(f"bit string may contain only '0'/'1': {s!r}")
        self._s = s

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return _trusted("0" * n)

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """Most-significant-first rendering of `value` in `width` bits."""
        if value < 0 or (width == 0 and value != 0) or value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return _trusted(format(value, f"0{width}b") if width else "")

    def to_int(self) -> int:
        """Integer value of the MSB-first rendering (0 for the empty string)."""
        return int(self._s, 2) if self._s else 0

    def weight(self) -> int:
        """Hamming weight (number of 1s)."""
        return self._s.count("1")

    def xor(self, other: "BitString") -> "BitString":
        if len(other) != len(self):
            raise ValueError("xor requires equal lengths")
        if not self._s:
            return self
        v = int(self._s, 2) ^ int(other._s, 2)
        return _trusted(format(v, f"0{len(self._s)}b"))

    def __len__(self) -> int:
        return len(self._s)

    def __str__(self) -> str:
        return self._s

    def __repr__(self) -> str:
        return f"BitString({self._s!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitString) and self._s == other._s

    def __hash__(self) -> int:
        return hash(("BitString", self._s))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            other = BitString(other)
        return _trusted(self._s + other._s)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _trusted(self._s[item])
        return 1 if self._s[item] == "1" else 0

    def __iter__(self) -> Iterator[int]:
        return (1 if c == "1" else 0 for c in self._s)


def _trusted(s: str) -> BitString:
    """BitString over `s` without validation.

    Only for strings built from already-valid bits (slices, sums, xor,
    integer renderings); text from outside the library goes through the
    validating constructor.
    """
    b = object.__new__(BitString)
    b._s = s
    return b


def _gamma(n: int) -> str:
    # Elias gamma for n >= 1: (bitlen-1) zeros, then the binary form of n.
    b = format(n, "b")
    return "0" * (len(b) - 1) + b


def encode_uint(n: int) -> BitString:
    """Prefix-free encoding of a non-negative integer (Elias gamma of n+1)."""
    if n < 0:
        raise ValueError("encode_uint takes a non-negative integer")
    return _trusted(_gamma(n + 1))


def decode_uint(s: BitString | str, start: int = 0) -> tuple[int, int]:
    """Inverse of encode_uint, read from str(s): a BitString or its
    already-checked '0'/'1' text.

    Returns (value, bits consumed).  Raises MalformedCode on truncation.
    """
    text = str(s)
    i = start
    zeros = 0
    while i < len(text) and text[i] == "0":
        zeros += 1
        i += 1
    if i >= len(text):
        raise MalformedCode("truncated gamma header (no stop bit)")
    if i + zeros + 1 > len(text):
        raise MalformedCode("truncated gamma header (value cut short)")
    value = int(text[i : i + zeros + 1], 2)
    return value - 1, (i + zeros + 1) - start


def encode_self_delimiting(payload: BitString) -> BitString:
    """Prefix-free wrapping: gamma length header followed by the payload."""
    return _trusted(_gamma(len(payload) + 1) + payload._s)


def decode_self_delimiting(s: BitString, start: int = 0) -> tuple[BitString, int]:
    """Parse one self-delimited payload starting at `start`.

    Returns (payload, total bits consumed including the header).
    """
    length, header = decode_uint(s, start)
    end = start + header + length
    if end > len(s):
        raise MalformedCode(f"payload of {length} bits cut short")
    return s[start + header : end], header + length
