"""Irreversible boolean-circuit IR: the compiler's source language.

A netlist is a list of named inputs, a topologically ordered list of
{and, or, not, xor} gates referencing inputs or earlier gates, and a list
of output references.  This is exactly the gate family the reversible
target forbids, hence what the compiler must eliminate.

A netlist numbers its nodes while it is checked, in its constructor:
the inputs 0..k-1, then gate j as k+j.  `steps` holds one (op, argument
index, argument index) triple per gate and `output_nodes` the index of
each output.  `cone` holds the steps of the output cone, the gates some
output reads directly or through other gates, as (op, argument index,
argument index, node index) in netlist order.  `evaluate` runs only the
cone, over one row of 0/1 ints with one slot per node, as `circuits`
runs gates over a state's lines.  `steps` keeps every gate, since the
compiler gives each its own line.

JSON form:
    {"inputs": ["a", "b"],
     "gates": [{"id": "g0", "op": "and", "args": ["a", "b"]}],
     "outputs": ["g0"]}
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bitstring import _FROM_ROWS, _TO_ROWS, BitString, _trusted
from .errors import LandauerError, WidthMismatch, json_field, load_json, save_json

AND = "and"
OR = "or"
NOT = "not"
XOR = "xor"

OPS = (AND, OR, NOT, XOR)
_ARITY = {AND: 2, OR: 2, XOR: 2, NOT: 1}


@dataclass(frozen=True)
class LogicGate:
    gate_id: str
    op: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class IrreversibleCircuit:
    inputs: tuple[str, ...]
    gates: tuple[LogicGate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(set(self.inputs)) != len(self.inputs):
            raise LandauerError("duplicate input names")
        index = {name: i for i, name in enumerate(self.inputs)}
        steps = []
        for g in self.gates:
            if g.op not in OPS:
                raise LandauerError(f"unknown op {g.op!r}")
            if len(g.args) != _ARITY[g.op]:
                raise LandauerError(f"{g.op} takes {_ARITY[g.op]} args, got {len(g.args)}")
            if g.gate_id in index:
                raise LandauerError(f"duplicate node id {g.gate_id!r}")
            for a in g.args:
                if a not in index:
                    raise LandauerError(f"gate {g.gate_id!r} references unknown node {a!r}")
            steps.append((g.op, index[g.args[0]], index[g.args[-1]]))
            index[g.gate_id] = len(index)
        for o in self.outputs:
            if o not in index:
                raise LandauerError(f"output references unknown node {o!r}")
        output_nodes = tuple(index[o] for o in self.outputs)
        # The output cone in one backward pass: a gate is live when an
        # output or a live gate reads it.
        live = set(output_nodes)
        cone = []
        t = len(index)
        for op, a, b in reversed(steps):
            t -= 1
            if t in live:
                live.add(a)
                live.add(b)
                cone.append((op, a, b, t))
        cone.reverse()
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "cone", tuple(cone))
        object.__setattr__(self, "_zeros", (0,) * len(steps))  # evaluate's blank gate slots
        object.__setattr__(self, "output_nodes", output_nodes)


def evaluate(c: IrreversibleCircuit, input_bits: BitString) -> BitString:
    """Standard boolean semantics; returns the output bits in order.
    Node values are 0/1 ints, so NOT is ^ 1."""
    text = str(input_bits)
    if len(text) != len(c.inputs):
        raise WidthMismatch(f"{len(c.inputs)} inputs expected, got {len(text)} bits")
    # One slot per node, so a node's index stays its place in the row; a
    # gate outside the output cone is never run and keeps its 0.
    value = [*text.encode().translate(_TO_ROWS), *c._zeros]
    and_, or_, xor_ = AND, OR, XOR  # locals load faster than module globals
    for op, a, b, t in c.cone:
        if op == and_:
            value[t] = value[a] & value[b]
        elif op == or_:
            value[t] = value[a] | value[b]
        elif op == xor_:
            value[t] = value[a] ^ value[b]
        else:
            value[t] = value[a] ^ 1
    return _trusted(bytes([value[o] for o in c.output_nodes]).translate(_FROM_ROWS).decode())


# --- library macros -----------------------------------------------------------


def rom_circuit(output_bits: BitString, num_inputs: int) -> IrreversibleCircuit:
    """Constant-output circuit: emits `output_bits` regardless of input.

    Constants are built from the first input (x XOR x = 0, NOT of that = 1),
    so at least one input line is required.
    """
    if num_inputs < 1:
        raise LandauerError("rom_circuit needs at least one input")
    names = tuple(f"x{i}" for i in range(num_inputs))
    gates = (
        LogicGate("zero", XOR, (names[0], names[0])),
        LogicGate("one", NOT, ("zero",)),
    )
    outputs = tuple("one" if b else "zero" for b in output_bits)
    return IrreversibleCircuit(names, gates, outputs)


def random_netlist(num_inputs: int, num_gates: int, rng: random.Random) -> IrreversibleCircuit:
    """Random topologically ordered netlist for compiler stress tests."""
    if num_inputs < 1:
        raise LandauerError("random_netlist needs at least one input")
    names = [f"x{i}" for i in range(num_inputs)]
    gates = []
    pool = list(names)
    for j in range(num_gates):
        op = rng.choice(OPS)
        args = tuple(rng.choice(pool) for _ in range(_ARITY[op]))
        gid = f"g{j}"
        gates.append(LogicGate(gid, op, args))
        pool.append(gid)
    k = rng.randint(1, max(1, len(pool) // 2))
    outputs = tuple(rng.choice(pool) for _ in range(k))
    return IrreversibleCircuit(tuple(names), tuple(gates), outputs)


# --- JSON netlist format ------------------------------------------------------


def netlist_to_json(c: IrreversibleCircuit) -> dict:
    return {
        "inputs": list(c.inputs),
        "gates": [{"id": g.gate_id, "op": g.op, "args": list(g.args)} for g in c.gates],
        "outputs": list(c.outputs),
    }


def netlist_from_json(doc: dict) -> IrreversibleCircuit:
    """Inverse of netlist_to_json; a missing or ill-typed field raises
    MalformedInput."""
    gates = []
    for n, g in enumerate(json_field(doc, "gates", list, "netlist")):
        where = f"netlist gate {n}"
        args = json_field(g, "args", list, where, str)
        gates.append(LogicGate(json_field(g, "id", str, where), json_field(g, "op", str, where), tuple(args)))
    inputs, outputs = (tuple(json_field(doc, key, list, "netlist", str)) for key in ("inputs", "outputs"))
    return IrreversibleCircuit(inputs, tuple(gates), outputs)


def save_netlist(c: IrreversibleCircuit, path: str) -> None:
    save_json(netlist_to_json(c), path)


def load_netlist(path: str) -> IrreversibleCircuit:
    return netlist_from_json(load_json(path, "netlist"))
