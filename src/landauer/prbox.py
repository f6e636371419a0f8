"""Nonlocal-correlation quadruples and compression-rate proxies.

Generates truncated quadruples (a, b, x, y) satisfying the box condition
x_i XOR y_i = a_i AND b_i bit-exactly, with a, b, x drawn from seeded
pseudorandom streams.  Pseudorandomness stands in for incompressibility:
compressor rates are upper bounds on description-length rates, so the
reported proxies never invert an inequality, but they cannot certify
lower bounds on true complexity either — the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .bitstring import BitString, encode_self_delimiting
from .circuits import check_sweep
from .compress import estimate_complexity
from .errors import StringTooShort
from .rng import random_bits, substream

MIN_RATE_LENGTH = 64


@dataclass(frozen=True)
class CorrelationQuadruple:
    a: BitString
    b: BitString
    x: BitString
    y: BitString

    def __post_init__(self):
        if not (len(self.a) == len(self.b) == len(self.x) == len(self.y)):
            raise ValueError("quadruple strings must share one truncation length")

    @property
    def n(self) -> int:
        return len(self.a)


def generate_pr_quadruple(n: int, seed: int) -> CorrelationQuadruple:
    """a, b, x pseudorandom; y forced by the box condition.

    n is capped at the sweep ceiling, checked before any draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_sweep(f"n = {n} bits", states=n)
    a = random_bits(substream(seed, "a"), n)
    b = random_bits(substream(seed, "b"), n)
    x = random_bits(substream(seed, "x"), n)
    y = BitString.from_int((a.to_int() & b.to_int()) ^ x.to_int(), n)
    return CorrelationQuadruple(a, b, x, y)


def check_pr_condition(q: CorrelationQuadruple) -> bool:
    # bitwise over equal-length strings (the quadruple enforces it)
    return (q.x.to_int() ^ q.y.to_int()) == (q.a.to_int() & q.b.to_int())


def complexity_rate(s: BitString, helper: BitString = BitString()) -> Fraction:
    """Estimated description length per bit; an upper-bound proxy for the
    complexity rate."""
    if len(s) < MIN_RATE_LENGTH:
        raise StringTooShort(f"rates need at least {MIN_RATE_LENGTH} bits, got {len(s)}")
    return Fraction(estimate_complexity(s, helper).bits, len(s))


def pair_helper(first: BitString, second: BitString) -> BitString:
    """Decodable pairing used for conditioning on two strings at once."""
    return encode_self_delimiting(first) + second


@dataclass(frozen=True)
class PrBoxReport:
    n: int
    pr_condition: bool
    rate_a: Fraction
    rate_b: Fraction
    rate_x: Fraction
    rate_y: Fraction
    rate_ab_joint: Fraction  # rate of a||b over 2n
    no_signaling_gap_x: Fraction  # |rate(x|a) - rate(x|a,b)|
    no_signaling_gap_y: Fraction
    rate_x_given_a: Fraction
    rate_y_given_b: Fraction
    caveat: ClassVar[str] = (
        "compressor rates upper-bound complexity rates; with pseudorandom "
        "inputs the output-complexity numbers are proxies, not certificates"
    )


MIN_REPORT_LENGTH = 256


def pr_report(q: CorrelationQuadruple) -> PrBoxReport:
    """Rate proxies for the three box conditions.

    Incompressibility: per-string rates and the joint rate of a||b (to be
    compared with the separate rates).  No-signaling: how much the
    x-side rate moves when b is added to the conditioning, and the
    symmetric y-side number.  Output complexity: rates of the outputs
    conditioned on their own inputs.  Below 256 bits the header terms
    drown every rate, so shorter quadruples are rejected.
    """
    if q.n < MIN_REPORT_LENGTH:
        raise StringTooShort(f"reports need n >= {MIN_REPORT_LENGTH}, got {q.n}")
    empty = BitString()
    rate_x_a = complexity_rate(q.x, q.a)
    rate_x_ab = complexity_rate(q.x, pair_helper(q.a, q.b))
    rate_y_b = complexity_rate(q.y, q.b)
    rate_y_ab = complexity_rate(q.y, pair_helper(q.a, q.b))
    return PrBoxReport(
        n=q.n,
        pr_condition=check_pr_condition(q),
        rate_a=complexity_rate(q.a, empty),
        rate_b=complexity_rate(q.b, empty),
        rate_x=complexity_rate(q.x, empty),
        rate_y=complexity_rate(q.y, empty),
        rate_ab_joint=complexity_rate(q.a + q.b, empty),
        no_signaling_gap_x=abs(rate_x_a - rate_x_ab),
        no_signaling_gap_y=abs(rate_y_b - rate_y_ab),
        rate_x_given_a=rate_x_a,
        rate_y_given_b=rate_y_b,
    )
