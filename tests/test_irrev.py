import json
import pickle
import re

import pytest

from landauer.bitstring import BitString
from landauer.errors import LandauerError, WidthMismatch
from landauer.irrev import (
    IrreversibleCircuit,
    LogicGate,
    evaluate,
    netlist_from_json,
    netlist_to_json,
    random_netlist,
    rom_circuit,
)
from landauer.rng import substream


def gate(gid, op, *args):
    return LogicGate(gid, op, tuple(args))


def wire_through(n):
    """An n-input netlist whose outputs are its inputs, with no gates."""
    names = tuple(f"x{i}" for i in range(n))
    return IrreversibleCircuit(names, (), names)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IrreversibleCircuit(("a", "a"), (), ()), "duplicate input names"),
        (lambda: IrreversibleCircuit(("a",), (gate("g", "and", "a"),), ()), "and takes 2 args, got 1"),
        (lambda: IrreversibleCircuit(("a",), (gate("a", "not", "a"),), ()), "duplicate node id 'a'"),
        (lambda: rom_circuit(BitString("1"), 0), "rom_circuit needs at least one input"),
        (lambda: random_netlist(0, 3, substream(0, "netlist")), "random_netlist needs at least one input"),
        (
            lambda: random_netlist(3, -5, substream(0, "netlist")),
            "random_netlist needs a non-negative gate count, got -5",
        ),
    ],
    ids=["duplicate-inputs", "arity", "duplicate-node", "rom-no-inputs", "random-no-inputs", "random-negative-gates"],
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(LandauerError, match=f"^{re.escape(message)}$"):
        call()


def test_and_or_xor_not_truth_tables():
    c = IrreversibleCircuit(
        ("a", "b"),
        (
            gate("and", "and", "a", "b"),
            gate("or", "or", "a", "b"),
            gate("xor", "xor", "a", "b"),
            gate("not", "not", "a"),
        ),
        ("and", "or", "xor", "not"),
    )
    rows = {
        "00": "0001",
        "01": "0111",
        "10": "0110",
        "11": "1100",
    }
    for inp, want in rows.items():
        assert evaluate(c, BitString(inp)) == BitString(want)


def test_wire_through():
    c = wire_through(4)
    assert evaluate(c, BitString("0110")) == BitString("0110")


def test_rom_circuit_ignores_input():
    c = rom_circuit(BitString("1011"), num_inputs=2)
    for inp in ("00", "01", "10", "11"):
        assert evaluate(c, BitString(inp)) == BitString("1011")


def test_width_mismatch():
    c = wire_through(3)
    with pytest.raises(WidthMismatch):
        evaluate(c, BitString("01"))


def test_structure_validation():
    with pytest.raises(ValueError):
        IrreversibleCircuit(("a",), (gate("g", "and", "a", "zzz"),), ("g",))
    with pytest.raises(ValueError):
        IrreversibleCircuit(("a",), (gate("g", "nand", "a", "a"),), ("g",))
    with pytest.raises(ValueError):
        # forward reference breaks topological order
        IrreversibleCircuit(
            ("a",),
            (gate("g0", "and", "a", "g1"), gate("g1", "not", "a")),
            ("g0",),
        )
    with pytest.raises(ValueError):
        IrreversibleCircuit(("a",), (), ("missing",))


def test_random_netlist_is_deterministic_and_evaluable():
    a = random_netlist(5, 20, substream(3, "netlist"))
    b = random_netlist(5, 20, substream(3, "netlist"))
    assert a == b
    for v in range(32):
        out = evaluate(a, BitString.from_int(v, 5))
        assert len(out) == len(a.outputs)


def test_netlist_json_roundtrip():
    c = random_netlist(4, 10, substream(4, "json"))
    doc = netlist_to_json(c)
    text = json.dumps(doc, sort_keys=True)
    again = netlist_from_json(json.loads(text))
    assert again == c
    assert json.dumps(netlist_to_json(again), sort_keys=True) == text


def test_netlists_pickle_and_compare_by_their_fields_alone():
    for n_outputs in range(3):  # the output gather's three shapes: none, one, several
        names = ("a", "b")
        c = IrreversibleCircuit(names, (gate("g", "xor", "a", "b"),), ("g", "a")[:n_outputs])
        again = pickle.loads(pickle.dumps(c))
        assert again == c and hash(again) == hash(c)
        assert again == IrreversibleCircuit(names, c.gates, c.outputs)
        for inp in ("00", "01", "10", "11"):
            assert evaluate(again, BitString(inp)) == evaluate(c, BitString(inp))
