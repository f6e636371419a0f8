import math
import re
from fractions import Fraction

import pytest

from landauer.circuits import check_conservative, fredkin
from landauer.clausius import (
    WeightCouple,
    clausius_experiment,
    count_class_transitions,
    imbalance_ratio_exact,
    imbalance_tail_exact,
    random_conservative_circuit,
)
from landauer.errors import DomainTooLarge, LandauerError, NonIntegralWeights, NotConservative, WidthTooSmall
from landauer.rng import substream, substream_seed


def binom_oracle(n: int, k: int) -> int:
    """Multiplicative-formula binomials, independent of math.comb."""
    if k < 0 or k > n:
        return 0
    result = 1
    for i in range(1, k + 1):
        result = result * (n - i + 1) // i
    return result


def ratio_oracle(n, w, delta):
    w, delta = Fraction(w), Fraction(delta)
    wn = int(w * n)
    wdn = int((w + delta) * n)
    return Fraction(
        binom_oracle(n, wdn) * binom_oracle(n, n - wdn),
        binom_oracle(n, wn) * binom_oracle(n, n - wn),
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightCouple(2, 3, 0), "weights must lie in [0, n]"),
        (
            lambda: count_class_transitions(
                random_conservative_circuit(6, 4, 0), WeightCouple(4, 2, 2), WeightCouple(4, 3, 1)
            ),
            "circuit width 6 does not match 2n = 8",
        ),
        (lambda: imbalance_ratio_exact(4, Fraction(1, 4), Fraction(1, 4)), "w must satisfy 1/2 <= w < 1, got 1/4"),
        (lambda: imbalance_ratio_exact(4, Fraction(3, 4), Fraction(1, 2)), "delta must satisfy 0 <= delta <= 1-w, got 1/2"),
        (lambda: imbalance_ratio_exact(-4, Fraction(1, 2), Fraction(1, 4)), "n must be non-negative, got -4"),
        (lambda: imbalance_tail_exact(-4, Fraction(1, 2), Fraction(1, 4)), "n must be non-negative, got -4"),
        (lambda: clausius_experiment(-4, Fraction(1, 2), Fraction(1, 4), 1, 0), "n must be non-negative, got -4"),
    ],
    ids=[
        "weights-outside-0-n",
        "width-not-2n",
        "w-outside-range",
        "delta-outside-range",
        "negative-n-ratio",
        "negative-n-tail",
        "negative-n-experiment",
    ],
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(LandauerError, match=f"^{re.escape(message)}$"):
        call()


def test_ratio_degenerate_delta_zero():
    for n in (2, 6, 12):
        assert imbalance_ratio_exact(n, Fraction(1, 2), 0) == 1


def test_ratio_hand_evaluated_small():
    assert imbalance_ratio_exact(2, Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)


def test_ratio_against_independent_oracle():
    assert imbalance_ratio_exact(8, Fraction(1, 2), Fraction(1, 4)) == Fraction(4, 25)
    assert ratio_oracle(8, Fraction(1, 2), Fraction(1, 4)) == Fraction(4, 25)
    for n, w, d in ((4, "1/2", "1/4"), (12, "1/2", "1/6"), (10, "3/5", "1/5"), (16, "3/4", "1/4")):
        assert imbalance_ratio_exact(n, Fraction(w), Fraction(d)) == ratio_oracle(n, w, d)


def test_ratio_symmetric_at_half():
    # swapping the halves leaves the balanced-start expression unchanged
    for n in (4, 8, 12):
        r = imbalance_ratio_exact(n, Fraction(1, 2), Fraction(1, 4))
        swapped = Fraction(
            binom_oracle(n, n // 4) * binom_oracle(n, 3 * n // 4),
            binom_oracle(n, n // 2) ** 2,
        )
        assert r == swapped


def test_non_integral_weights():
    with pytest.raises(NonIntegralWeights):
        imbalance_ratio_exact(6, Fraction(3, 4), 0)
    with pytest.raises(NonIntegralWeights):
        imbalance_ratio_exact(5, Fraction(1, 2), Fraction(1, 5))


def test_tail_empty_beyond_maximum():
    # delta already at the maximum: the tail is the single all-ones class
    n = 4
    full = imbalance_tail_exact(n, Fraction(1, 2), Fraction(1, 2))
    assert full == ratio_oracle(n, Fraction(1, 2), Fraction(1, 2))


def test_tail_from_zero_pinned():
    # summation oracle for n=8, w=1/2, delta=0: sum of C(8,k)C(8,8-k)
    # for k=4..8 over C(8,4)^2; the sum exceeds 1 because every class is
    # normalized by the single balanced class
    total = sum(binom_oracle(8, k) * binom_oracle(8, 8 - k) for k in range(4, 9))
    expected = Fraction(total, binom_oracle(8, 4) ** 2)
    assert imbalance_tail_exact(8, Fraction(1, 2), 0) == expected == Fraction(1777, 980)


def test_tail_dominates_point():
    for d in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        assert imbalance_tail_exact(8, Fraction(1, 2), d) >= imbalance_ratio_exact(
            8, Fraction(1, 2), d
        )


def test_random_conservative_circuit_contracts():
    c = random_conservative_circuit(8, 0, seed=1)
    assert c.gate_count() == 0
    a = random_conservative_circuit(16, 25, seed=99)
    b = random_conservative_circuit(16, 25, seed=99)
    assert a == b
    assert check_conservative(a)
    assert check_conservative(a, exhaustive=True)
    with pytest.raises(WidthTooSmall):
        random_conservative_circuit(2, 5, seed=0)


def test_random_conservative_circuit_draws_equal_random_sample():
    # widths up to 21 take sample()'s pool branch, wider ones its set branch
    for width in range(3, 41):
        for seed in range(51):
            gate_count = (seed + width) % 41
            rng = substream(seed, "fredkin-circuit")
            want = tuple(fredkin(*rng.sample(range(width), 3)) for _ in range(gate_count))
            assert random_conservative_circuit(width, gate_count, seed).gates == want, (width, seed)


@pytest.mark.parametrize("count", [-1, -3])
def test_negative_gate_count_is_rejected(count):
    with pytest.raises(ValueError, match="gate count"):
        random_conservative_circuit(8, count, seed=1)
    with pytest.raises(ValueError, match="gate count"):
        clausius_experiment(4, Fraction(1, 2), Fraction(1, 4), circuits=2, seed=0, gate_count=count)


def test_zero_gate_circuits_still_count_toward_the_sweep_ceiling():
    # each circuit counts as at least one gate, so a huge count is refused, not run
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LANDAUER_MAX_WIDTH", "4")  # the (1, 1) class of n = 2 holds 4 states
        with pytest.raises(DomainTooLarge, match=r"^17 circuits x 0 gates, each circuit counted as at least one gate, exceeds the 2\^4 sweep ceiling$"):
            clausius_experiment(2, Fraction(1, 2), Fraction(1, 2), circuits=17, seed=0, gate_count=0)
        assert clausius_experiment(2, Fraction(1, 2), Fraction(1, 2), circuits=16, seed=0, gate_count=0).within_ceiling
    message = re.escape(f"{2**20 + 1} circuits x 0 gates, each circuit counted as at least one gate, exceeds the 2^20 sweep ceiling")
    with pytest.raises(DomainTooLarge, match=f"^{message}$"):
        clausius_experiment(4, Fraction(1, 2), Fraction(1, 4), circuits=2**20 + 1, seed=0, gate_count=0)


def test_zero_gates_is_the_identity_experiment():
    r = clausius_experiment(4, Fraction(1, 2), Fraction(1, 4), circuits=3, seed=0, gate_count=0)
    assert r.gate_count == 0
    assert r.max_point_fraction == 0 and r.max_tail_fraction == 0
    assert r.within_ceiling


def test_count_class_transitions_identity():
    from landauer.circuits import ReversibleCircuit

    identity = ReversibleCircuit(8)
    balanced = WeightCouple(4, 2, 2)
    assert count_class_transitions(identity, balanced, balanced) == balanced.class_size()
    other = WeightCouple(4, 3, 1)
    assert count_class_transitions(identity, balanced, other) == 0


def test_count_class_transitions_rejects_a_target_of_another_n():
    from landauer.circuits import ReversibleCircuit

    identity = ReversibleCircuit(8)
    for target in (WeightCouple(3, 3, 1), WeightCouple(6, 3, 1)):
        with pytest.raises(ValueError, match="target n"):
            count_class_transitions(identity, WeightCouple(4, 2, 2), target)


def test_count_class_transitions_requires_conservative():
    from landauer.circuits import ReversibleCircuit, not_gate

    bad = ReversibleCircuit(8, (not_gate(0),))
    with pytest.raises(NotConservative):
        count_class_transitions(bad, WeightCouple(4, 2, 2), WeightCouple(4, 3, 1))


def test_count_class_transitions_on_a_wide_non_fredkin_circuit():
    from landauer.circuits import ReversibleCircuit, cnot

    # 24 lines: the 2^24 cube is past the ceiling, the 1-state class is not
    swap = ReversibleCircuit(24, (cnot(0, 12), cnot(12, 0), cnot(0, 12)))
    source = WeightCouple(12, 12, 0)
    assert count_class_transitions(swap, source, WeightCouple(12, 11, 1)) == 1
    assert count_class_transitions(swap, source, source) == 0


def test_count_class_transitions_wide_circuit_must_keep_class_weights():
    from landauer.circuits import ReversibleCircuit, not_gate, toffoli

    state = "111111111111000000000000"
    with pytest.raises(NotConservative, match=rf"source-class state {state}, at gate 0 \(not on lines 23\)$"):
        count_class_transitions(ReversibleCircuit(24, (not_gate(23),)), WeightCouple(12, 12, 0), WeightCouple(12, 12, 1))
    # weight-changing only off the class: above the ceiling the class is all that is checked
    off_class = ReversibleCircuit(24, (toffoli(12, 13, 0),))
    assert count_class_transitions(off_class, WeightCouple(12, 12, 0), WeightCouple(12, 12, 0)) == 1


def test_count_class_transitions_within_ceiling_proves_the_whole_cube():
    from landauer.circuits import ReversibleCircuit, toffoli

    # identity on the one state of class (2, 2, 0), but 0011 -> 1011 changes weight
    off_class = ReversibleCircuit(4, (toffoli(2, 3, 0),))
    with pytest.raises(NotConservative):
        count_class_transitions(off_class, WeightCouple(2, 2, 0), WeightCouple(2, 2, 0))


def test_count_class_transitions_on_a_proved_non_fredkin_circuit():
    from landauer.circuits import ReversibleCircuit, not_gate

    # two NOTs on one line cancel: not all-Fredkin, but conservative over the whole cube
    c = random_conservative_circuit(8, 32, 5)
    padded = ReversibleCircuit(8, (not_gate(0), not_gate(0)) + c.gates)
    assert not check_conservative(padded) and check_conservative(padded, exhaustive=True)
    source, target = WeightCouple(4, 2, 2), WeightCouple(4, 3, 1)
    assert count_class_transitions(padded, source, target) == count_class_transitions(c, source, target) == 11


def test_whole_cube_refusal_names_the_first_state_and_gate():
    from landauer.bitstring import BitString
    from landauer.circuits import ReversibleCircuit, cnot, simulate

    gates = random_conservative_circuit(8, 16, 3).gates
    c = ReversibleCircuit(8, gates[:8] + (cnot(2, 5),) + gates[8:])
    cube = (BitString(format(x, "08b")[::-1]) for x in range(256))  # line i is bit i of x
    first = next(s for s in cube if str(simulate(c, s)).count("1") != str(s).count("1"))
    with pytest.raises(NotConservative, match=rf"first offending state {first}, at gate 8 \(cnot on lines 2, 5\)$"):
        count_class_transitions(c, WeightCouple(4, 2, 2), WeightCouple(4, 3, 1))


def test_sweep_ceiling_counts_class_states_not_lines(monkeypatch):
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "4")
    # 36 states > 2^4, although the circuit is only 8 lines wide
    message = re.escape("WeightCouple(n=4, left_weight=2, right_weight=2) of 36 states exceeds the 2^4 sweep ceiling")
    with pytest.raises(DomainTooLarge, match=f"^{message}$"):
        count_class_transitions(random_conservative_circuit(8, 8, 1), WeightCouple(4, 2, 2), WeightCouple(4, 3, 1))
    with pytest.raises(DomainTooLarge, match=f"^{message}$"):
        clausius_experiment(4, Fraction(1, 2), Fraction(1, 4), circuits=1, seed=0)
    # the 8 states of the (8, 1) class of a 16-line circuit fit
    c = random_conservative_circuit(16, 40, 2)
    source = WeightCouple(8, 8, 1)
    counts = [count_class_transitions(c, source, WeightCouple(8, lw, 9 - lw)) for lw in range(1, 9)]
    assert sum(counts) == source.class_size() == 8


def test_injectivity_ceiling_exhaustive_small():
    # every conservative bijection sends a class into a class at most
    # target-size often; checked over all class pairs for sampled circuits
    n = 3
    for seed in range(10):
        c = random_conservative_circuit(2 * n, 12, seed)
        for lw in range(n + 1):
            source = WeightCouple(n, lw, n - lw)
            for tw in range(n + 1):
                target = WeightCouple(n, tw, n - tw)
                count = count_class_transitions(c, source, target)
                assert count <= target.class_size()


def test_ceiling_inequality_100_circuits():
    target = WeightCouple(6, 5, 1)
    source = WeightCouple(6, 3, 3)
    limit = target.class_size()
    assert limit == 36
    for seed in range(100):
        c = random_conservative_circuit(12, 24, seed)
        assert count_class_transitions(c, source, target) <= limit


def test_experiment_report():
    report = clausius_experiment(4, Fraction(1, 2), Fraction(1, 4), circuits=20, seed=5)
    assert report.within_ceiling
    assert report.point_ceiling == Fraction(4, 9)
    assert report.max_point_fraction <= report.point_ceiling
    assert report.max_tail_fraction <= report.tail_ceiling
    # trend grid: strictly decreasing log2 ceilings
    values = [v for _, v in report.per_n_trend]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_experiment_identity_and_delta_zero():
    # gate_count=0 keeps every string in place: fraction 0 for delta > 0
    report = clausius_experiment(
        4, Fraction(1, 2), Fraction(1, 4), circuits=3, seed=9, gate_count=0
    )
    assert report.max_point_fraction == 0
    degenerate = clausius_experiment(
        4, Fraction(1, 2), 0, circuits=3, seed=9, gate_count=8
    )
    assert degenerate.max_point_fraction <= 1 == degenerate.point_ceiling


def test_trend_decreases_by_at_least_one_bit():
    ratios = [imbalance_ratio_exact(n, Fraction(1, 2), Fraction(1, 4)) for n in (4, 8, 12, 16)]
    for earlier, later in zip(ratios, ratios[1:]):
        assert 2 * later <= earlier  # log2 difference <= -1, checked exactly


# every on-grid (w, delta) with w in {1/2, 2/3, 3/4}: w*n integral and delta = k/n up to 1 - w
CROSS_CHECK_GRID = [
    (n, w, Fraction(k, n))
    for n in (2, 4, 6)
    for w in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    if (w * n).denominator == 1
    for k in range(int((1 - w) * n) + 1)
]


@pytest.mark.parametrize("n, w, delta", CROSS_CHECK_GRID, ids=[f"n{n}-w{w}-d{d}" for n, w, d in CROSS_CHECK_GRID])
def test_experiment_report_agrees_with_the_public_functions(n, w, delta):
    wn, wdn = int(w * n), int((w + delta) * n)
    source = WeightCouple(n, wn, n - wn)
    trend = []
    for k in range(1, 5):
        ratio = imbalance_ratio_exact(k * n, w, delta)
        trend.append((k * n, math.log2(ratio.numerator) - math.log2(ratio.denominator)))
    for seed in (0, 3):
        for gate_count in (0, 1, 9, None):
            report = clausius_experiment(n, w, delta, circuits=3, seed=seed, gate_count=gate_count)
            assert report.point_ceiling == imbalance_ratio_exact(n, w, delta)
            assert report.tail_ceiling == imbalance_tail_exact(n, w, delta)
            assert report.per_n_trend == tuple(trend)
            points, tails = [], []
            for i in range(3):
                c = random_conservative_circuit(2 * n, report.gate_count, substream_seed(seed, "circuit", i))
                counts = [count_class_transitions(c, source, WeightCouple(n, t, n - t)) for t in range(wdn, n + 1)]
                points.append(counts[0])
                tails.append(sum(counts))
            assert report.max_point_fraction == Fraction(max(points), source.class_size())
            assert report.max_tail_fraction == Fraction(max(tails), source.class_size())
