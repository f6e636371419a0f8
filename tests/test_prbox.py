import re
from fractions import Fraction

import pytest

from landauer.bitstring import BitString
from landauer.errors import StringTooShort
from landauer.prbox import (
    CorrelationQuadruple,
    check_pr_condition,
    complexity_rate,
    generate_pr_quadruple,
    pair_helper,
    pr_report,
)
from landauer.rng import random_bits, substream


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: CorrelationQuadruple(BitString("1"), BitString("1"), BitString("1"), BitString()),
            "quadruple strings must share one truncation length",
        ),
        (lambda: generate_pr_quadruple(0, 3), "n must be >= 1"),
    ],
    ids=["unequal-lengths", "n-zero"],
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_condition_holds_on_generated_quadruples():
    for seed in range(20):
        q = generate_pr_quadruple(512, seed)
        assert check_pr_condition(q)
        # exhaustive bit check, spelled out
        for i in range(q.n):
            assert q.x[i] ^ q.y[i] == (q.a[i] & q.b[i])


def test_condition_forced_examples():
    all_ones = CorrelationQuadruple(
        BitString("1111"), BitString("1111"), BitString("0000"), BitString("1111")
    )
    assert check_pr_condition(all_ones)
    # a_i b_i = 0 everywhere forces y = x
    q = CorrelationQuadruple(
        BitString("0000"), BitString("1010"), BitString("0110"), BitString("0110")
    )
    assert check_pr_condition(q)
    flipped = CorrelationQuadruple(q.a, q.b, q.x, q.y.xor(BitString("0001")))
    assert not check_pr_condition(flipped)
    empty = CorrelationQuadruple(BitString(), BitString(), BitString(), BitString())
    assert check_pr_condition(empty)


def test_generation_is_deterministic():
    assert generate_pr_quadruple(256, 7) == generate_pr_quadruple(256, 7)
    assert generate_pr_quadruple(256, 7) != generate_pr_quadruple(256, 8)


def test_rate_requires_minimum_length():
    with pytest.raises(StringTooShort):
        complexity_rate(BitString.zeros(63))


def test_report_requires_minimum_length():
    with pytest.raises(StringTooShort):
        pr_report(generate_pr_quadruple(128, 1))


def test_rate_zero_run_is_small():
    rate = complexity_rate(BitString.zeros(1024))
    assert rate == Fraction(26, 1024)  # frozen: run-length branch plus tags
    assert rate < Fraction(1, 10)


def test_rate_of_string_given_itself_is_small():
    s = random_bits(substream(71, "self"), 256)
    assert complexity_rate(s, s) < Fraction(1, 8)


def test_rate_pseudorandom_is_near_one():
    s = random_bits(substream(2024, "pseudorandom12"), 4096)
    rate = complexity_rate(s)
    assert Fraction(9, 10) <= rate <= Fraction(105, 100)
    assert rate == Fraction(4097, 4096)  # frozen regression value


def test_conditioning_on_self_never_hurts():
    rng = substream(72, "sanity")
    for _ in range(10):
        s = random_bits(rng, 256)
        eps = Fraction(64, 256)  # header slack per rate unit
        assert complexity_rate(s, s) <= complexity_rate(s) + eps


def test_pair_helper_is_decodable():
    a = BitString("1011")
    b = BitString("0001110")
    from landauer.bitstring import decode_self_delimiting

    packed = pair_helper(a, b)
    got_a, used = decode_self_delimiting(packed)
    assert got_a == a and packed[used:] == b


def test_report_regression_pins_seed7():
    rep = pr_report(generate_pr_quadruple(4096, 7))
    assert rep.pr_condition
    # frozen after the first run: pseudorandom strings sit at the identity
    # branch, one tag bit over length
    expected = Fraction(4097, 4096)
    assert rep.rate_a == rep.rate_b == rep.rate_x == rep.rate_y == expected
    assert rep.rate_ab_joint == Fraction(8193, 8192)
    assert rep.no_signaling_gap_x == 0
    assert rep.no_signaling_gap_y == 0
    assert rep.rate_x_given_a == expected
    assert rep.rate_y_given_b == expected


def test_report_zero_inputs_make_output_track_x():
    n = 256
    a = BitString.zeros(n)
    b = BitString.zeros(n)
    x = random_bits(substream(73, "x"), n)
    q = CorrelationQuadruple(a, b, x, x)  # a.b = 0 forces y = x
    assert check_pr_condition(q)
    assert complexity_rate(q.y, q.x) < Fraction(1, 8)


def test_report_deterministic_under_seed():
    assert pr_report(generate_pr_quadruple(1024, 3)) == pr_report(generate_pr_quadruple(1024, 3))
