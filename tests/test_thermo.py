import math
from fractions import Fraction

import pytest

from landauer.bitstring import BitString, encode_self_delimiting
from landauer.compress import IDENTITY, LZ78, XOR, default_family, estimate_complexity
from landauer.errors import NonPositiveTemperature
from landauer.rng import random_bits, substream
from landauer.thermo import (
    EnergyLedger,
    circular_combination_report,
    coded_length,
    computation_cost_lower_bound,
    computation_value_lower_bound,
    erasure_cost_interval,
    to_joules,
    wv_lower_bound,
    wv_report,
    wv_upper_bound,
)


def test_to_joules_examples():
    assert to_joules(0, 300.0) == 0.0
    one_bit = to_joules(1, 300.0)
    assert one_bit == pytest.approx(1.380649e-23 * 300.0 * math.log(2), rel=1e-12)
    assert one_bit == pytest.approx(2.871e-21, rel=1e-3)
    assert to_joules(17, 300.0) == pytest.approx(17 * one_bit, rel=1e-12)
    with pytest.raises(NonPositiveTemperature):
        to_joules(1, 0.0)
    with pytest.raises(NonPositiveTemperature):
        to_joules(1, -4.0)
    for temperature in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveTemperature):
            to_joules(1, temperature)


def test_ledger_is_exact():
    ledger = EnergyLedger()
    ledger.credit("a", 5)
    ledger.debit("b", Fraction(1, 3))
    ledger.credit("c", Fraction(1, 3))
    assert ledger.total_bits() == 5


def test_wv_lower_bound_zero_run():
    # lz78 on 0^64 wins just one bit after all headers; still positive
    value = wv_lower_bound(BitString.zeros(64), BitString(), LZ78)
    assert value == 64 - coded_length(LZ78, BitString.zeros(64), BitString())
    assert value > 0
    assert value == 1  # frozen from the token-format oracle


def test_wv_lower_bound_identity_is_negative():
    s = random_bits(substream(41, "id"), 8)
    value = wv_lower_bound(s, BitString(), IDENTITY)
    assert value < 0
    assert max(0, value) == 0


def test_wv_lower_bound_xor_with_self():
    s = random_bits(substream(42, "xor"), 64)
    value = wv_lower_bound(s, s, XOR)
    assert value >= 64 - 6 * math.ceil(math.log2(64))


def test_wv_upper_bound_cases():
    s = random_bits(substream(43, "up"), 64)
    assert wv_upper_bound(s, s) >= 64 - 30  # near-maximal when helper equals data
    # the empty string costs exactly its codec tag: one header bit below zero
    assert wv_upper_bound(BitString(), BitString("101")) == -1
    r = random_bits(substream(2024, "pseudorandom"), 1024)
    assert abs(wv_upper_bound(r, BitString())) <= 1  # rate ~ 1 on pseudorandom data


def test_erasure_interval_cases():
    lower_upper = erasure_cost_interval(BitString.zeros(64), BitString(), LZ78)
    assert lower_upper.lower_bits <= lower_upper.upper_bits
    assert lower_upper.upper_bits == 63  # frozen: lz78 coded length of 0^64
    assert lower_upper.lower_estimated and not lower_upper.upper_estimated

    degenerate = erasure_cost_interval(BitString(), BitString(), IDENTITY)
    assert degenerate.lower_bits == degenerate.upper_bits == 1  # header-scale

    s = random_bits(substream(44, "ecx"), 64)
    both_log = erasure_cost_interval(s, s, XOR)
    assert both_log.upper_bits <= 4 * math.ceil(math.log2(64))


def test_interval_holds_on_random_inputs():
    rng = substream(45, "sweep")
    for _ in range(300):
        s = random_bits(rng, rng.randrange(0, 40))
        x = random_bits(rng, rng.randrange(0, 40))
        for codec in default_family():
            rep = erasure_cost_interval(s, x, codec)
            assert rep.lower_bits <= rep.upper_bits
            assert estimate_complexity(s, x).bits <= len(s) + 1


def test_sandwich_consistency_exhaustive_small():
    # codec in family => wv_lower <= len(S) - K-hat
    for codec in default_family():
        for sv in range(16):
            s = BitString.from_int(sv, 4)
            for xv in range(4):
                x = BitString.from_int(xv, 2)
                upper_est = len(s) - estimate_complexity(s, x).bits
                lower = len(s) - (
                    len(encode_self_delimiting(BitString(codec.id_bits)))
                    + len(codec.compress(s, x))
                )
                assert lower <= upper_est


def test_cost_and_value_general_computation():
    rng = substream(46, "cost")
    zeros = BitString.zeros(64)
    r = random_bits(rng, 64)
    empty = BitString()
    # erasing-to-self at the estimator minimum is never positive
    for a in (zeros, r):
        assert computation_cost_lower_bound(a, a, (), empty, IDENTITY) <= 0
    assert computation_cost_lower_bound(zeros, r, (), empty, LZ78) < 0
    assert computation_cost_lower_bound(r, zeros, (), empty, LZ78) > 0
    assert computation_value_lower_bound(zeros, r, empty, LZ78) > 0
    assert computation_value_lower_bound(r, r, empty, IDENTITY) <= 0


def test_intermediate_terms_cancel_exactly():
    rng = substream(47, "mid")
    a = random_bits(rng, 32)
    b = random_bits(rng, 32)
    x = random_bits(rng, 16)
    mids = [random_bits(rng, 24) for _ in range(3)]
    base = computation_cost_lower_bound(a, b, (), x, LZ78)
    with_mids = computation_cost_lower_bound(a, b, mids, x, LZ78)
    correction = sum(
        coded_length(LZ78, c, x) - estimate_complexity(c, x).bits for c in mids
    )
    assert with_mids == base - correction
    # an intermediate whose coded length equals its estimate changes nothing
    for c in mids:
        if coded_length(LZ78, c, x) == estimate_complexity(c, x).bits:
            assert computation_cost_lower_bound(a, b, (c,), x, LZ78) == base


def test_value_cost_duality():
    rng = substream(48, "dual")
    for _ in range(50):
        a = random_bits(rng, rng.randrange(0, 48))
        b = random_bits(rng, rng.randrange(0, 48))
        x = random_bits(rng, rng.randrange(0, 24))
        gain = computation_value_lower_bound(a, b, x, LZ78)
        cost = computation_cost_lower_bound(b, a, (), x, LZ78)
        assert gain == cost


def test_circular_combination_equality():
    rng = substream(49, "circ")
    a = BitString.zeros(64)
    b = random_bits(rng, 64)
    x = random_bits(rng, 64)
    for pair in ((a, b), (a, a), (b, x)):
        rep = circular_combination_report(pair[0], pair[1], x, LZ78)
        assert rep["equal"]
        assert rep["gain_forward_bits"] == rep["cost_backward_bits"]
    small = circular_combination_report(BitString.zeros(8), BitString.zeros(8), BitString(), LZ78)
    # frozen: K-hat(0^8) = 9 against a 24-bit self-delimited lz78 code;
    # zero-adjacent at header scale, not beyond it
    assert small["gain_forward_bits"] == -15
    assert abs(small["gain_forward_bits"]) <= 24


def test_wv_report_flags():
    s = random_bits(substream(50, "rep"), 16)
    rep = wv_report(s, BitString(), LZ78)
    assert not rep.lower_estimated and rep.upper_estimated
    assert rep.lower_bits <= rep.upper_bits
    d = rep.to_dict(300.0)
    assert d["estimated"] == {"lower": False, "upper": True}
    assert d["joules"]["T"] == 300.0
