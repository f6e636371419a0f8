import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauer.bitstring import BitString
from landauer.circuits import (
    ANCILLA_ZERO,
    CONST_ONE,
    DEFAULT_DRIFT_SLACK,
    Gate,
    ReversibleCircuit,
    check_conservative,
    check_injective_bruteforce,
    circuit_from_json,
    circuit_to_json,
    cnot,
    complexity_drift_report,
    fredkin,
    is_toffoli_only,
    normalize_to_toffoli,
    not_gate,
    permutation_table,
    run_states,
    simulate,
    simulate_trajectory,
    toffoli,
)
from landauer.compress import estimate_complexity
from landauer.errors import (
    BadConstantLine,
    DomainTooLarge,
    WidthMismatch,
)
from landauer.rng import random_bits, substream


def random_circuit(rng, width, gates):
    kinds = ("toffoli", "cnot", "not", "fredkin") if width >= 3 else ("cnot", "not")
    out = []
    for _ in range(gates):
        kind = rng.choice(kinds)
        if kind == "toffoli":
            a, b, t = rng.sample(range(width), 3)
            out.append(toffoli(a, b, t))
        elif kind == "cnot":
            a, t = rng.sample(range(width), 2)
            out.append(cnot(a, t))
        elif kind == "not":
            out.append(not_gate(rng.randrange(width)))
        else:
            c, a, b = rng.sample(range(width), 3)
            out.append(fredkin(c, a, b))
    return ReversibleCircuit(width, tuple(out))


@pytest.mark.parametrize(
    "gate",
    [Gate("swap", (0,), (1,)), Gate("toffoli", (0,), (1,)), toffoli(0, 0, 1), cnot(-1, 0), toffoli(0, 1, 3)],
    ids=["unknown-kind", "wrong-arity", "repeated-line", "negative-line", "line-at-width"],
)
def test_an_invalid_gate_is_refused_with_its_index(gate):
    with pytest.raises(ValueError) as info:
        ReversibleCircuit(3, (not_gate(0), cnot(0, 1), gate))
    message = str(info.value)
    assert message.startswith(f"gate 2 {gate} ") and message.endswith("width 3")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ReversibleCircuit(-1), ValueError, "width must be non-negative"),
        (lambda: ReversibleCircuit(2, line_roles=(CONST_ONE,)), ValueError, "line_roles length must equal width"),
        (lambda: ReversibleCircuit(1, line_roles=("bus",)), ValueError, "unknown line role 'bus'"),
        (lambda: run_states(ReversibleCircuit(2), [0], 1), WidthMismatch, "batch has 1 lines, circuit width 2"),
        (lambda: check_injective_bruteforce(ReversibleCircuit(3), 2), WidthMismatch, "circuit width 3, asked to sweep 2 bits"),
        (lambda: complexity_drift_report((), len), ValueError, "trajectory must contain at least the initial state"),
    ],
    ids=["negative-width", "roles-length", "unknown-role", "batch-lines", "sweep-width", "empty-trajectory"],
)
def test_refusals_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_toffoli_truth_table():
    c = ReversibleCircuit(3, (toffoli(0, 1, 2),))
    assert simulate(c, BitString("110")) == BitString("111")
    assert simulate(c, BitString("100")) == BitString("100")
    assert simulate(c, BitString("111")) == BitString("110")


def test_fredkin_swaps_on_control():
    c = ReversibleCircuit(3, (fredkin(0, 1, 2),))
    assert simulate(c, BitString("101")) == BitString("110")
    assert simulate(c, BitString("001")) == BitString("001")


def test_empty_circuit_is_identity():
    c = ReversibleCircuit(4)
    assert simulate(c, BitString("0101")) == BitString("0101")


def test_simulate_width_and_constant_checks():
    c = ReversibleCircuit(2, (cnot(0, 1),), (CONST_ONE, ANCILLA_ZERO))
    with pytest.raises(WidthMismatch):
        simulate(c, BitString("101"))
    with pytest.raises(BadConstantLine):
        simulate(c, BitString("00"))  # const-one line carries 0
    with pytest.raises(BadConstantLine):
        simulate(c, BitString("11"))  # ancilla line carries 1
    assert simulate(c, BitString("10")) == BitString("11")


def test_reversal_soundness_bulk():
    # 10^4 random (circuit, state) pairs
    rng = substream(7, "reversal")
    for trial in range(500):
        width = rng.randint(3, 10)
        c = random_circuit(rng, width, rng.randint(0, 25))
        r = ReversibleCircuit(c.width, c.gates[::-1], c.line_roles)
        for _ in range(20):
            s = random_bits(rng, width)
            assert simulate(r, simulate(c, s)) == s


def test_gate_locality():
    rng = substream(11, "locality")
    for _ in range(200):
        width = rng.randint(3, 9)
        c = random_circuit(rng, width, 1)
        g = c.gates[0]
        s = random_bits(rng, width)
        t = simulate(c, s)
        changed = {i for i in range(width) if s[i] != t[i]}
        assert changed <= set(g.targets)


def test_bijectivity_of_constructed_circuits():
    rng = substream(12, "bijective")
    for _ in range(30):
        width = rng.randint(2, 12)
        c = random_circuit(rng, width, rng.randint(0, 40))
        table = permutation_table(c)
        assert len(np.unique(table)) == 1 << width
    wide = random_circuit(rng, 16, 60)
    assert len(np.unique(permutation_table(wide))) == 1 << 16


@st.composite
def circuit_and_batch(draw):
    width = draw(st.integers(1, 70))
    kinds = [not_gate] + [cnot] * (width >= 2) + [toffoli, fredkin] * (width >= 3)
    gates = []
    for make in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        arity = 1 if make is not_gate else 2 if make is cnot else 3
        lines = st.integers(0, width - 1)
        gates.append(make(*draw(st.lists(lines, min_size=arity, max_size=arity, unique=True))))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=20))
    return ReversibleCircuit(width, tuple(gates)), [BitString.from_int(v, width) for v in values]


@settings(max_examples=150, deadline=None)
@given(circuit_and_batch())
def test_run_states_matches_scalar_simulate(case):
    c, batch = case
    rows = [sum(s[i] << x for x, s in enumerate(batch)) for i in range(c.width)]
    out = run_states(c, rows, len(batch))
    assert [BitString("".join(str(r >> x & 1) for r in out)) for x in range(len(batch))] == [simulate(c, s) for s in batch]


def test_injective_bruteforce_on_circuit():
    rng = substream(13, "inj")
    c = random_circuit(rng, 8, 20)
    assert check_injective_bruteforce(c, 8)
    assert check_injective_bruteforce(ReversibleCircuit(6), 6)


def test_injective_bruteforce_domain_cap():
    for width in (24, 60):  # refused before the 2^width marks are allocated
        with pytest.raises(DomainTooLarge):
            check_injective_bruteforce(ReversibleCircuit(width), width)


def test_max_width_env_override(monkeypatch):
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "4")
    with pytest.raises(DomainTooLarge, match=r"^a circuit of 5 lines exceeds the 2\^4 sweep ceiling$"):
        check_injective_bruteforce(ReversibleCircuit(5), 5)
    assert check_injective_bruteforce(ReversibleCircuit(4), 4)


def test_conservative_checks():
    all_fredkin = ReversibleCircuit(5, (fredkin(0, 1, 2), fredkin(4, 3, 0)))
    assert check_conservative(all_fredkin)
    assert check_conservative(all_fredkin, exhaustive=True)
    single_not = ReversibleCircuit(2, (not_gate(0),))
    assert not check_conservative(single_not)
    assert not check_conservative(single_not, exhaustive=True)
    empty = ReversibleCircuit(3)
    assert check_conservative(empty)
    assert check_conservative(empty, exhaustive=True)
    # weight-preserving but not all-Fredkin: structural misses, exhaustive sees it
    swap_by_cnots = ReversibleCircuit(2, (cnot(0, 1), cnot(1, 0), cnot(0, 1)))
    assert not check_conservative(swap_by_cnots)
    assert check_conservative(swap_by_cnots, exhaustive=True)


def test_trajectory_records_each_gate():
    c = ReversibleCircuit(2, (not_gate(0), cnot(0, 1)))
    traj = simulate_trajectory(c, BitString("00"))
    assert [str(s) for s in traj] == ["00", "10", "11"]


def test_drift_report_constant_trajectory():
    est = lambda s: estimate_complexity(s, BitString()).bits
    c = ReversibleCircuit(8)
    traj = simulate_trajectory(c, BitString.zeros(8))
    rep = complexity_drift_report(traj, est)
    assert all(r.drop == 0 for r in rep.rows)
    assert tuple(r.t for r in rep.rows if r.flagged) == ()


def test_drift_report_random_toffoli_trajectory():
    rng = substream(14, "drift")
    gates = []
    for _ in range(64):
        a, b, t = rng.sample(range(16), 3)
        gates.append(toffoli(a, b, t))
    c = ReversibleCircuit(16, tuple(gates))
    traj = simulate_trajectory(c, BitString.zeros(16))
    est = lambda s: estimate_complexity(s, BitString()).bits
    rep = complexity_drift_report(traj, est)
    assert len(rep.rows) == 65
    # recompute each row independently of the report path
    for t, row in enumerate(rep.rows):
        assert row.state_bits == est(traj[t])
        assert row.drop == rep.rows[0].state_bits - row.state_bits
    # 16-bit states cannot drop below the 64-bit slack
    assert tuple(r.t for r in rep.rows if r.flagged) == ()


@pytest.mark.parametrize("initial_bits, flagged", [(67, (1, 2)), (66, ())])
def test_drift_report_flags_a_drop_beyond_time_cost_plus_slack(initial_bits, flagged):
    c = ReversibleCircuit(2, (not_gate(0), cnot(0, 1)))
    traj = simulate_trajectory(c, BitString("00"))  # states 00, 10, 11
    # 1 bit for every later state and every time encoding, so each later
    # step drops initial_bits - 1 against 1 + 64, and only a strict excess flags
    est = lambda s: initial_bits if s == BitString("00") else 1
    rep = complexity_drift_report(traj, est)
    assert [r.drop for r in rep.rows] == [0, initial_bits - 1, initial_bits - 1]
    assert tuple(r.t for r in rep.rows if r.flagged) == flagged
    assert rep.slack_bits == DEFAULT_DRIFT_SLACK == 64


def test_normalize_to_toffoli_preserves_semantics():
    rng = substream(15, "normalize")
    for _ in range(25):
        width = rng.randint(3, 7)
        c = random_circuit(rng, width, rng.randint(1, 15))
        n = normalize_to_toffoli(c)
        assert is_toffoli_only(n)
        for _ in range(20):
            s = random_bits(rng, width)
            assert simulate(n, s + BitString("11"))[:width] == simulate(c, s)


def test_json_roundtrip_bit_exact():
    rng = substream(16, "json")
    c = random_circuit(rng, 6, 12)
    doc = circuit_to_json(c)
    text = json.dumps(doc, sort_keys=True)
    again = circuit_from_json(json.loads(text))
    assert again == c
    assert json.dumps(circuit_to_json(again), sort_keys=True) == text
    assert doc["version"] == 1
