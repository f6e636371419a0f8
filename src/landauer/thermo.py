"""Free-energy accounting: work-value and erasure-cost bounds in bit units.

All quantities are kept as exact integers/rationals in units of kT*ln2 per
bit, and no ledger or report holds a temperature.  Joules appear only at
presentation time, via to_joules at the CLI's --temperature.  Sides of a
bound that rely on the compressor-family estimator are flagged
`estimated`: the estimator upper-bounds true description length, so an
estimated lower bound may exceed the true one.  No numeric fudge factors are ever applied; every
report carries the achieving codec.

Length convention: whenever a coded length enters a bound, it is the
self-delimited coded length (header plus codec output), so each quantity
is the length of a genuinely decodable description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bitstring import BitString, encode_uint
from .compress import CompressionCodec, estimate_complexity
from .errors import NonPositiveTemperature

BOLTZMANN_K = 1.380649e-23  # J/K, exact by SI definition
LN2 = math.log(2.0)

DEFAULT_TEMPERATURE = 300.0


def to_joules(bits, temperature: float) -> float:
    """bits * k * T * ln 2 with the SI Boltzmann constant k; floats enter
    here and only here.

    The temperature must be finite and above 0 K (NaN and infinities are
    refused), so every joule figure is a finite number.
    """
    if not 0 < temperature < math.inf:
        raise NonPositiveTemperature(f"temperature must be finite and > 0 K, got {temperature}")
    return float(bits) * BOLTZMANN_K * temperature * LN2


@dataclass
class EnergyLedger:
    """Signed free-energy entries in exact bit units (single writer).

    Credits are energy gained (extracted work), debits energy spent
    (erasure).  The ledger holds bits only; the CLI converts its total to
    joules with to_joules at its --temperature.
    """

    entries: list[tuple[str, Fraction]] = field(default_factory=list)

    def credit(self, label: str, bits) -> None:
        self.entries.append((label, Fraction(bits)))

    def debit(self, label: str, bits) -> None:
        self.entries.append((label, -Fraction(bits)))

    def total_bits(self) -> Fraction:
        return sum((v for _, v in self.entries), Fraction(0))


def coded_length(codec: CompressionCodec, data: BitString, helper: BitString) -> int:
    """Self-delimited length of the codec's output on (data, helper)."""
    n = codec.code_length(data, helper)
    return len(encode_uint(n)) + n


def wv_lower_bound(S: BitString, X: BitString, codec: CompressionCodec) -> int:
    """len(S) minus the coded length: work extractable via this codec.

    Reported raw; a negative value means this codec's overhead exceeds
    any saving (the effective bound is then max(0, value), since doing
    nothing extracts nothing).
    """
    return len(S) - coded_length(codec, S, X)


def wv_upper_bound(S: BitString, X: BitString) -> int:
    """len(S) - estimated description length of S given X (estimated).

    The estimator over-estimates true description length, so this value
    is at or below the ideal upper bound; an interval [lower, upper] that
    comes up empty reflects estimator weakness, which callers report
    rather than treat as an error.
    """
    return len(S) - estimate_complexity(S, X).bits


@dataclass(frozen=True)
class BoundReport:
    """Two-sided bound on one quantity, with per-side estimator flags."""

    quantity: str
    lower_bits: int
    upper_bits: int
    lower_estimated: bool
    upper_estimated: bool
    lower_codec: str = ""
    upper_codec: str = ""
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "lower_bits": self.lower_bits,
            "upper_bits": self.upper_bits,
            "estimated": {"lower": self.lower_estimated, "upper": self.upper_estimated},
            "codec": {"lower": self.lower_codec, "upper": self.upper_codec},
            "note": self.note,
        }

    def certified_bits(self) -> int:
        # WV: the lower bound is the side a codec actually achieves.
        # EC: the upper bound is the achievable cost.  Estimated sides are
        # never the certified one when an exact side exists.
        if self.quantity == "EC":
            return self.upper_bits
        return self.lower_bits


def erasure_cost_interval(S: BitString, X: BitString, codec: CompressionCodec) -> BoundReport:
    """[estimated description length, coded length] for erasing S given X.

    The lower side uses the family estimator and is clamped to the upper
    side: both sides over-estimate the true description length, so their
    minimum is itself the better estimate.  The clamp keeps
    lower <= upper structurally; the estimated flag marks that the lower
    side may still exceed the true bound.
    """
    est = estimate_complexity(S, X)
    coded = coded_length(codec, S, X)
    return BoundReport(
        quantity="EC",
        lower_bits=min(est.bits, coded),
        upper_bits=coded,
        lower_estimated=True,
        upper_estimated=False,
        lower_codec=est.codec_name if est.bits <= coded else codec.name,
        upper_codec=codec.name,
        note="estimated lower bound (may exceed the true bound)",
    )


def wv_report(S: BitString, X: BitString, codec: CompressionCodec) -> BoundReport:
    """Work-value interval: codec-achieved lower, estimator-based upper."""
    est = estimate_complexity(S, X)
    return BoundReport(
        quantity="WV",
        lower_bits=wv_lower_bound(S, X, codec),
        upper_bits=len(S) - est.bits,
        lower_estimated=False,
        upper_estimated=True,
        lower_codec=codec.name,
        upper_codec=est.codec_name,
        note="upper side estimated; negative lower means codec overhead "
        "(effective bound max(0, lower))",
    )


def computation_cost_lower_bound(
    A: BitString,
    B: BitString,
    intermediates: Sequence[BitString],
    X: BitString,
    codec: CompressionCodec,
) -> int:
    """Estimated lower bound, in bits, on the cost of computing B from A
    given X through the listed intermediate states.

    Evaluates  K(A|X) - sum_i (len(code(C_i|X)) - K(C_i|X)) - len(code(B|X))
    with description lengths replaced by the family estimator; with no
    intermediates this reduces to K(A|X) - len(code(B|X)).
    """
    total = estimate_complexity(A, X).bits
    for C in intermediates:
        total -= coded_length(codec, C, X) - estimate_complexity(C, X).bits
    total -= coded_length(codec, B, X)
    return total


def computation_value_lower_bound(
    A: BitString, B: BitString, X: BitString, codec: CompressionCodec
) -> int:
    """Estimated lower bound on the work gained computing B from A given X:
    K(B|X) - len(code(A|X))."""
    return estimate_complexity(B, X).bits - coded_length(codec, A, X)


def circular_combination_report(
    A: BitString, B: BitString, X: BitString, codec: CompressionCodec
) -> dict:
    """Gain of A->B versus cost of B->A: the same expression both ways.

    The two bounds are one formula evaluated twice; anything else would
    allow a free-energy cycle.
    """
    gain = computation_value_lower_bound(A, B, X, codec)
    cost = computation_cost_lower_bound(B, A, (), X, codec)
    return {
        "gain_forward_bits": gain,
        "cost_backward_bits": cost,
        "equal": gain == cost,
        "estimated": True,
    }
