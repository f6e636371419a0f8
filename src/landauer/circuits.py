"""Reversible-circuit IR, simulation, and injectivity/conservativity checks.

A circuit is a fixed-width ordered list of gates from {toffoli, cnot, not,
fredkin}.  Each gate is an involution on {0,1}^width, so every circuit
induces a bijection, and the same gates in reverse order invert it.

NOT and CNOT are admitted as primitives for readability, but they are
definitionally Toffoli gates with constant-1 controls: `normalize_to_toffoli`
rewrites any circuit into Toffoli-only form over two appended CONST_ONE
lines, so the "reversible gates only, no AND/OR" discipline is checkable.

One kernel, `_apply`, holds the gate semantics.  A gate is a plain
record; its circuit's constructor, the one place that checks a gate,
checks and lowers it once, with one dict lookup per gate: its shape
finds its step's head (`_HEADS`), which its lines follow in the step
(`_prog`).  The CONST_ONE and ANCILLA_ZERO roles become line masks
(`_const`).  The kernel applies the steps to a list of per-line rows.
For one state the rows are the ints 0/1 of the bit string, character i
being line i.  A batch (`run_states`) is one Python int per line, bit x
being state x: one int operation on a few hundred bytes costs far less
than one numpy call.

Exhaustive sweeps run as one batch at any width and are refused up front
beyond 2**LANDAUER_MAX_WIDTH swept states (default 2**20).  `check_sweep`
is the one ceiling check: every size refusal of the package, sweep or
size argument, goes through it and reads one message form.  The full
cube's rows are built by doubling (`cube_rows`).  `permutation_table`
runs the kernel on uint8 views of its lines as periodic bytes
(`_cube_bytes`), where numpy's per-byte speed wins at 2^width states,
and packs the image back into state integers one byte lane (8 lines) at a time.  The
table is cached on its circuit and is read-only, so
`check_conservative(exhaustive=True)` reuses it; the ceiling is checked
on every call, before the cache.  `check_injective_bruteforce` marks the
images of a table the circuit already holds; otherwise it builds none,
and runs the cube's rows through the gates and back instead: every
state comes back iff the reversed gates are a left inverse, which proves
the map injective.  The table, the marking pass and the exhaustive
conservation check import numpy when called, so importing circuits, or
proving a circuit with no table injective, does not.

A state as an int has bit i = line i, the bit string read backwards
(`_to_mask`); the constant-line check, the Fig. 1 build and the
weight-class rows use it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, NamedTuple, Sequence

from .bitstring import _FROM_ROWS, _TO_ROWS, BitString, _trusted
from .errors import (
    BadConstantLine,
    DomainTooLarge,
    LandauerError,
    MalformedInput,
    WidthMismatch,
    json_field,
    load_json,
    save_json,
)

if TYPE_CHECKING:
    import numpy as np

TOFFOLI = "toffoli"
CNOT = "cnot"
NOT = "not"
FREDKIN = "fredkin"

# Line roles.
INPUT = "input"
HELPER = "helper"
ANCILLA_ZERO = "ancilla_zero"
CONST_ONE = "const_one"
OUTPUT_ALIAS = "output_alias"

LINE_ROLES = (INPUT, HELPER, ANCILLA_ZERO, CONST_ONE, OUTPUT_ALIAS)
_ROLE_SET = frozenset(LINE_ROLES)

DEFAULT_MAX_WIDTH = 20

# (gate kind, controls, targets), each kind with its arity -> the head of its
# `_apply` step: the kind, then the zeros that pad its lines to three
_HEADS = {(TOFFOLI, 2, 1): (TOFFOLI,), (CNOT, 1, 1): (CNOT, 0), (NOT, 0, 1): (NOT, 0, 0), (FREDKIN, 1, 2): (FREDKIN,)}


def max_sweep_width() -> int:
    """Exhaustive-sweep ceiling in lines; LANDAUER_MAX_WIDTH overrides."""
    raw = os.environ.get("LANDAUER_MAX_WIDTH")
    if raw is None:
        return DEFAULT_MAX_WIDTH
    try:
        width = int(raw)
    except ValueError:
        width = -1
    if width < 0:
        raise LandauerError(f"LANDAUER_MAX_WIDTH must be a non-negative integer, got {raw!r}")
    return width


def check_sweep(what: str, *, states: int = 0, lines: int = 0) -> None:
    """Refuse, before any work, `states` states or the cube of `lines`
    lines above the 2**max_sweep_width() ceiling; `what` names what was
    asked.  Neither a width nor the ceiling is raised to a power: states >
    2**width iff states - 1 needs more than width bits."""
    width = max_sweep_width()
    if lines > width or max(states - 1, 0).bit_length() > width:
        raise DomainTooLarge(f"{what} exceeds the 2^{width} sweep ceiling")


class Gate(NamedTuple):
    """One reversible gate over line indices: a plain record, which its
    circuit checks and lowers once, in the circuit's constructor.

    controls/targets arities by kind: toffoli 2/1, cnot 1/1, not 0/1,
    fredkin 1/2 (the two targets are the swapped pair).  The four factories
    build it with one `tuple.__new__` call, which skips NamedTuple's
    Python-level `__new__`.
    """

    kind: str
    controls: tuple[int, ...]
    targets: tuple[int, ...]


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return tuple.__new__(Gate, (TOFFOLI, (c1, c2), (target,)))


def cnot(control: int, target: int) -> Gate:
    return tuple.__new__(Gate, (CNOT, (control,), (target,)))


def not_gate(target: int) -> Gate:
    return tuple.__new__(Gate, (NOT, (), (target,)))


def fredkin(control: int, a: int, b: int) -> Gate:
    return tuple.__new__(Gate, (FREDKIN, (control,), (a, b)))


@dataclass(frozen=True)
class ReversibleCircuit:
    """Fixed-width gate list; the induced map on {0,1}^width is a bijection."""

    width: int
    gates: tuple[Gate, ...] = ()
    line_roles: tuple[str, ...] = ()

    def __post_init__(self):
        if self.width < 0:
            raise LandauerError("width must be non-negative")
        object.__setattr__(self, "gates", tuple(self.gates))
        roles = tuple(self.line_roles) if self.line_roles else (INPUT,) * self.width
        if len(roles) != self.width:
            raise LandauerError("line_roles length must equal width")
        try:
            known = _ROLE_SET.issuperset(roles)
        except TypeError:  # an unhashable role, which no known role is
            known = False
        if not known:
            raise LandauerError(f"unknown line role {next(r for r in roles if r not in LINE_ROLES)!r}")
        object.__setattr__(self, "line_roles", roles)
        # (CONST_ONE lines, ANCILLA_ZERO lines) as masks: each present role's marks, line i first
        marks = (bytes(map(role.__eq__, roles)) if role in roles else b"" for role in (CONST_ONE, ANCILLA_ZERO))
        object.__setattr__(self, "_const", tuple(_to_mask(m.translate(_FROM_ROWS).decode()) for m in marks))
        # the one gate check: a known kind with its arity, on distinct lines in 0..width-1; then
        # the `_apply` step (kind, a, b, t): the kind's head, then the gate's controls and targets
        line_set = set(range(self.width))
        prog = []
        try:
            for kind, controls, targets in self.gates:
                head = _HEADS.get((kind, len(controls), len(targets)))
                lines = controls + targets
                if head is None or len(line_set.intersection(lines)) < len(lines):
                    break
                prog.append(head + lines)
        except (TypeError, ValueError):  # not 3 fields, a field not a sequence, or an unhashable kind or line
            pass
        if (n := len(prog)) < len(self.gates):  # gate n is the first one not lowered
            raise LandauerError(
                f"gate {n} {self.gates[n]} is not a known kind with its arity"
                f" on distinct lines below width {self.width}"
            )
        object.__setattr__(self, "_prog", tuple(prog))

    def gate_count(self) -> int:
        return len(self.gates)


def _to_mask(bits: BitString | str) -> int:
    """The state as an int, line i <-> bit (1 << i): the bit string, or its
    '0'/'1' text, read backwards."""
    return int(str(bits)[::-1] or "0", 2)


def _check_constant_lines(c: ReversibleCircuit, mask: int) -> None:
    """Raise BadConstantLine for the lowest line whose role the state breaks."""
    one, zero = c._const
    bad = (one & ~mask) | (zero & mask)
    if bad:
        i = (bad & -bad).bit_length() - 1
        if one >> i & 1:
            raise BadConstantLine(f"line {i} is CONST_ONE but carries 0")
        raise BadConstantLine(f"line {i} is ANCILLA_ZERO but carries 1")


def _apply(prog, rows: list, ones):
    """The one gate kernel: apply lowered steps to per-line rows; `ones` is
    the all-ones row (1 for one state's bit, 2^count - 1 for a batch
    line held as an int, 0xFF for a uint8 plane view).  A step
    (kind, a, b, t) is the gate kind, then its lines ending in the last
    target t, with b the line before it.  Kinds are compared with == to
    local names, which load faster than globals; a step's kind is the
    `_HEADS` constant itself, even for a gate whose kind was read from JSON."""
    toffoli_, cnot_, not_ = TOFFOLI, CNOT, NOT
    for kind, a, b, t in prog:
        if kind == toffoli_:
            rows[t] ^= rows[a] & rows[b]
        elif kind == cnot_:
            rows[t] ^= rows[b]
        elif kind == not_:
            rows[t] ^= ones
        else:
            swap = rows[a] & (rows[b] ^ rows[t])
            rows[b] ^= swap
            rows[t] ^= swap
    return rows


def _rows(c: ReversibleCircuit, input_bits: BitString) -> list[int]:
    """One checked input state as per-line rows; string index i is line i."""
    if len(input_bits) != c.width:
        raise WidthMismatch(f"input has {len(input_bits)} bits, circuit width {c.width}")
    _check_constant_lines(c, _to_mask(input_bits))
    return list(str(input_bits).encode().translate(_TO_ROWS))


def _state(rows: list[int]) -> BitString:
    return _trusted(bytes(rows).translate(_FROM_ROWS).decode())


def simulate(c: ReversibleCircuit, input_bits: BitString) -> BitString:
    """Apply the gates in list order to a full-width input state."""
    return _state(_apply(c._prog, _rows(c, input_bits), 1))


def simulate_trajectory(c: ReversibleCircuit, input_bits: BitString) -> tuple[BitString, ...]:
    """The input state, then the state after each gate in list order."""
    rows = _rows(c, input_bits)
    return (_state(rows),) + tuple(_state(_apply((step,), rows, 1)) for step in c._prog)


def run_states(c: ReversibleCircuit, rows: Sequence[int], count: int) -> list[int]:
    """Apply the gates to a batch of `count` states, at any width.

    rows[i] is line i over the batch: bit x of it is line i of state x.
    The result is a new list in the same form, its bits at or above
    `count` 0 when those of the input are.  Constant lines are not checked.
    """
    if len(rows) != c.width:
        raise WidthMismatch(f"batch has {len(rows)} lines, circuit width {c.width}")
    return _apply(c._prog, list(rows), (1 << count) - 1)


def _cube_bytes(width: int) -> list[bytes]:
    """Line i of every state 0 .. 2^width - 1 in order, as little-endian
    bytes for permutation_table's planes: lines 0-2 repeat one byte (0xAA,
    0xCC, 0xF0), line i >= 3 alternates runs of 2^(i-3) bytes 0x00 and
    0xFF.  Below width 3 the bits past the last state are not 0."""
    size = (2**width + 7) // 8
    periods = [bytes([b]) for b in (0xAA, 0xCC, 0xF0)] + [bytes(1 << i) + b"\xff" * (1 << i) for i in range(width - 3)]
    return [p * (size // len(p)) for p in periods[:width]]


def cube_rows(width: int) -> list[int]:
    """The run_states rows of every state 0 .. 2^width - 1, in order: the
    cube of i + 1 lines is that of i lines twice, the second with line i set."""
    rows: list[int] = []
    for size in (1 << i for i in range(width)):  # the 2^i states of the first i lines
        rows = [r | r << size for r in rows]
        rows.append(((1 << size) - 1) << size)
    return rows


def permutation_table(c: ReversibleCircuit) -> np.ndarray:
    """The full map of a circuit as an array t with t[x] = image of state x.

    One batched run over all 2^width states, built once per circuit and
    returned read-only thereafter; a width above the sweep ceiling is
    refused on every call, cached or not.  State integers use bit i = line i.
    """
    check_sweep(f"a circuit of {c.width} lines", lines=c.width)
    table = c.__dict__.get("_table")
    if table is None:
        import numpy as np

        count = 1 << c.width
        planes = np.frombuffer(bytearray().join(_cube_bytes(c.width)), np.uint8).reshape(c.width, (count + 7) // 8)
        _apply(c._prog, list(planes), 0xFF)  # one uint8 view per line's bit plane, updated in place
        image = np.unpackbits(planes, axis=1, count=count, bitorder="little")
        # byte k of each state's little-endian int64 holds lines 8k .. 8k+7
        lanes = np.zeros((count, 8), dtype=np.uint8)
        for k in range(0, c.width, 8):
            acc = np.zeros(count, dtype=np.uint8)
            for line in reversed(image[k : k + 8]):
                acc += acc  # doubling, not <<=: numpy adds uint8 arrays much faster than it shifts them
                acc |= line
            lanes[:, k >> 3] = acc
        table = lanes.view("<i8").ravel().astype(np.int64, copy=False)
        table.setflags(write=False)
        c.__dict__["_table"] = table
    return table


def check_injective_bruteforce(c: ReversibleCircuit, n: int) -> bool:
    """Exhaustively test a circuit's map on its n-bit states for collisions.

    n must equal the circuit width (WidthMismatch otherwise); a width above
    the sweep ceiling is refused before anything is allocated.  A circuit
    that holds its `permutation_table` has every image marked in a 2^n
    bool array: a map of the 2^n states into themselves is injective iff
    onto.  Otherwise the cube's `cube_rows` run through the gates and back
    in reverse order, and must all come back: then R(C(x)) = x for every
    x, which proves C injective whatever the kernel does to each state (one
    bit position) on its own.  Every gate is an involution, so every
    circuit passes.
    """
    if c.width != n:
        raise WidthMismatch(f"circuit width {c.width}, asked to sweep {n} bits")
    check_sweep(f"a circuit of {n} lines", lines=n)
    table = c.__dict__.get("_table")
    if table is not None:
        import numpy as np

        hit = np.zeros(1 << n, dtype=bool)
        hit[table] = True
        return bool(hit.all())
    cube = cube_rows(n)
    return _apply(c._prog + c._prog[::-1], list(cube), (1 << 2**n) - 1) == cube  # forward, then back in reverse


def check_conservative(c: ReversibleCircuit, exhaustive: bool = False) -> bool:
    """True if the circuit preserves Hamming weight.

    Structural mode (default) accepts any width and checks that every gate
    is a Fredkin (weight-preserving by construction).  Exhaustive mode
    verifies weight(simulate(c, s)) == weight(s) over all states.
    """
    if not exhaustive:
        return all(g.kind == FREDKIN for g in c.gates)
    import numpy as np

    table = permutation_table(c)
    return bool(np.array_equal(np.bitwise_count(np.arange(len(table))), np.bitwise_count(table)))


def normalize_to_toffoli(c: ReversibleCircuit) -> ReversibleCircuit:
    """Rewrite NOT/CNOT/FREDKIN into Toffoli gates over two CONST_ONE lines.

    The two constant lines are appended only when a rewrite needs them.
    The normalized circuit agrees with the original on every input once
    the constant lines are set to 1.
    """
    if is_toffoli_only(c):
        return c
    one1, one2 = c.width, c.width + 1
    gates: list[Gate] = []

    def emit_cnot(ctrl: int, tgt: int) -> None:
        gates.append(toffoli(ctrl, one1, tgt))

    for g in c.gates:
        if g.kind == TOFFOLI:
            gates.append(g)
        elif g.kind == CNOT:
            emit_cnot(g.controls[0], g.targets[0])
        elif g.kind == NOT:
            gates.append(toffoli(one1, one2, g.targets[0]))
        else:  # fredkin(c, a, b) = cnot(b->a) toffoli(c,a->b) cnot(b->a)
            ctrl, a, b = g.controls[0], g.targets[0], g.targets[1]
            emit_cnot(b, a)
            gates.append(toffoli(ctrl, a, b))
            emit_cnot(b, a)
    roles = c.line_roles + (CONST_ONE, CONST_ONE)
    return ReversibleCircuit(c.width + 2, tuple(gates), roles)


def is_toffoli_only(c: ReversibleCircuit) -> bool:
    return all(g.kind == TOFFOLI for g in c.gates)


# --- complexity drift along a trajectory -------------------------------------

DEFAULT_DRIFT_SLACK = 64  # bits; the additive constant of the drift flag, not a claim


@dataclass(frozen=True)
class DriftRow:
    t: int
    state_bits: int  # K-hat of the state at time t
    time_bits: int  # K-hat of the encoding of t
    drop: int  # state_bits(0) - state_bits(t)
    flagged: bool


@dataclass(frozen=True)
class DriftReport:
    rows: tuple[DriftRow, ...]
    slack_bits: ClassVar[int] = DEFAULT_DRIFT_SLACK


def _time_encoding(t: int) -> BitString:
    return BitString(format(t, "b")) if t else BitString()


def complexity_drift_report(
    trajectory: tuple[BitString, ...], estimator: Callable[[BitString], int]
) -> DriftReport:
    """Per-step description-length drift of a trajectory, the states that
    simulate_trajectory returns.

    For each time t the report lists the estimator value of the state, of
    the time encoding, and the drop relative to t=0.  A step is flagged
    when drop > estimate(time) + DEFAULT_DRIFT_SLACK.  Flags are
    informational: the estimator upper-bounds true description length, so
    a flag never proves a violation of the underlying monotonicity bound.
    """
    if not trajectory:
        raise LandauerError("trajectory must contain at least the initial state")
    base = estimator(trajectory[0])
    rows = []
    for t, state in enumerate(trajectory):
        k_state = estimator(state)
        k_time = estimator(_time_encoding(t))
        drop = base - k_state
        rows.append(DriftRow(t, k_state, k_time, drop, drop > k_time + DEFAULT_DRIFT_SLACK))
    return DriftReport(tuple(rows))


# --- JSON circuit format ------------------------------------------------------

FORMAT_VERSION = 1


# gate kind -> (controls field, targets field); a plural field holds a list
_GATE_FIELDS = {
    TOFFOLI: ("controls", "target"),
    CNOT: ("control", "target"),
    NOT: (None, "target"),
    FREDKIN: ("control", "targets"),
}


def circuit_to_json(c: ReversibleCircuit) -> dict:
    gates = []
    for g in c.gates:
        entry = {"kind": g.kind}
        for key, lines in zip(_GATE_FIELDS[g.kind], (g.controls, g.targets)):
            if key:
                entry[key] = list(lines) if key.endswith("s") else lines[0]
        gates.append(entry)
    return {
        "version": FORMAT_VERSION,
        "width": c.width,
        "line_roles": list(c.line_roles),
        "gates": gates,
    }


def circuit_from_json(doc: dict) -> ReversibleCircuit:
    """Inverse of circuit_to_json; a missing or ill-typed field, another
    format version or an unknown gate kind raises MalformedInput."""
    if json_field(doc, "version", int, "circuit") != FORMAT_VERSION:
        raise MalformedInput(f"unsupported circuit format version {doc['version']!r}")
    gates = []
    for n, g in enumerate(json_field(doc, "gates", list, "circuit")):
        where = f"circuit gate {n}"
        kind = json_field(g, "kind", str, where)
        if kind not in _GATE_FIELDS:
            raise MalformedInput(f"{where}: unknown gate kind {kind!r}")
        control_key, target_key = _GATE_FIELDS[kind]
        controls = _json_lines(g, control_key, where) if control_key else ()
        gates.append(Gate(kind, controls, _json_lines(g, target_key, where)))
    width = json_field(doc, "width", int, "circuit")
    roles = json_field(doc, "line_roles", list, "circuit", str)
    if len(roles) != width:  # the file names every role; no default fills a huge width
        raise MalformedInput(f"circuit: 'line_roles' has {len(roles)} roles for width {width}")
    return ReversibleCircuit(width, tuple(gates), tuple(roles))


def _json_lines(gate: dict, key: str, where: str) -> tuple[int, ...]:
    """The line indices in one gate field; a plural field holds a list."""
    if key.endswith("s"):
        return tuple(json_field(gate, key, list, where, int))
    return (json_field(gate, key, int, where),)


def save_circuit(c: ReversibleCircuit, path: str) -> None:
    save_json(circuit_to_json(c), path)


def load_circuit(path: str) -> ReversibleCircuit:
    return circuit_from_json(load_json(path, "circuit"))
