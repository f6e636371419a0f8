import argparse
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauer import cli
from landauer.bitstring import BitString, encode_uint
from landauer.circuits import LINE_ROLES, ReversibleCircuit, circuit_from_json, load_circuit, save_circuit, simulate
from landauer.cli import main
from landauer.compress import LZ78
from landauer.errors import LandauerError
from landauer.irrev import OPS, IrreversibleCircuit, LogicGate, netlist_from_json, save_netlist
from landauer.thermo import to_joules

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    old_stdin = os.sys.stdin
    os.sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        os.sys.stdin = old_stdin
    return code, out.getvalue()


def test_compile_netlist_and_simulate(tmp_path):
    net = tmp_path / "net.json"
    save_netlist(
        IrreversibleCircuit(
            ("a", "b"), (LogicGate("g", "and", ("a", "b")),), ("g",)
        ),
        str(net),
    )
    out_file = tmp_path / "c.json"
    code, text = run_cli(["compile", "--netlist", str(net), "--out", str(out_file)])
    assert code == 0
    report = json.loads(text)
    assert report["mode"] == "bennett"
    assert report["width"] == 4
    circuit = load_circuit(str(out_file))
    assert simulate(circuit, BitString("1100")) == BitString("1101")

    code, text = run_cli(["simulate", "--circuit", str(out_file), "--input", "1100"])
    assert code == 0
    assert json.loads(text)["output"] == "1101"


def test_compile_fig1(tmp_path):
    out_file = tmp_path / "fig1.json"
    code, text = run_cli(
        [
            "compile",
            "--fig1",
            "--codec",
            "bookmark8",
            "--block",
            "8",
            "--helper",
            "10",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["mode"] == "fig1"
    assert report["width"] <= 20
    assert out_file.exists()


def test_fig1_compile_then_simulate_end_to_end(tmp_path):
    out_file = tmp_path / "fig1.json"
    code, text = run_cli(
        ["compile", "--fig1", "--codec", "bookmark8", "--block", "8",
         "--helper", "10", "--out", str(out_file)]
    )
    assert code == 0
    report = json.loads(text)
    # assemble a full-width input from the reported line map, as a user would
    width = report["width"]
    cells = ["0"] * width
    for bit, line in zip("10101010", report["input_lines"]):
        cells[line] = bit
    for bit, line in zip("10", report["helper_lines"]):
        cells[line] = bit
    code, text = run_cli(["simulate", "--circuit", str(out_file), "--input", "".join(cells)])
    assert code == 0
    state = json.loads(text)["output"]
    result = "".join(state[i] for i in report["result_lines"])
    # the tiled helper compresses: mode 0, wrapped one-bit code, zero padding
    assert result == "0" + "0100" + "0000"


def test_compress_decompress_pipe_roundtrip(tmp_path):
    helper = tmp_path / "h.bits"
    helper.write_text("10110")
    data = "0110100111001010"
    code, coded = run_cli(
        ["compress", "--codec", "lz78", "--helper-file", str(helper)], stdin_text=data
    )
    assert code == 0
    code, back = run_cli(
        ["decompress", "--codec", "lz78", "--helper-file", str(helper)],
        stdin_text=coded,
    )
    assert code == 0
    assert back.strip() == data


@pytest.mark.parametrize(
    "codec, code, helper",
    [
        ("lz78", "011000", ""),  # decodes 00 as (0, 0) then (1, 0); its code is 01101
        ("lz78", str(LZ78.compress(BitString("10110100"), BitString())) + "0", ""),  # a trailing bit
        ("xor", "1", ""),  # an empty literal payload; the encoder writes the run record 01
        ("bookmark8", "100000000", "0"),  # a literal of the tiling the helper bookmarks as 0
    ],
)
def test_decompress_refuses_a_code_the_encoder_does_not_write(tmp_path, codec, code, helper):
    argv = ["decompress", "--codec", codec]
    if helper:
        (tmp_path / "h.bits").write_text(helper)
        argv += ["--helper-file", str(tmp_path / "h.bits")]
    exit_code, text = run_cli(argv, stdin_text=code)
    assert exit_code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "MalformedCode"
    assert error["message"].startswith(f"{codec}: ")


def test_bounds_golden(tmp_path, monkeypatch):
    (tmp_path / "s.bits").write_text("0" * 16)
    (tmp_path / "x.bits").write_text("1011")
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["bounds", "--s-file", "s.bits", "--x-file", "x.bits", "--codec", "lz78"])
    assert code == 0
    assert json.loads(text) == json.loads((GOLDEN / "bounds_lz78.json").read_text())


def test_clausius_golden():
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "10", "--seed", "42"])
    assert code == 0
    report = json.loads(text)
    assert report == json.loads((GOLDEN / "clausius_n4.json").read_text())
    # rationals travel as exact p/q strings
    assert report["ceiling"] == "4/9"


def test_demon_scenarios(tmp_path, monkeypatch):
    (tmp_path / "s.bits").write_text("00000000")
    (tmp_path / "x.bits").write_text("1")
    monkeypatch.chdir(tmp_path)
    for scenario in ("extract", "extract-erase", "erase-extract", "xor-copy"):
        code, text = run_cli(
            [
                "demon",
                "--scenario",
                scenario,
                "--s-file",
                "s.bits",
                "--x-file",
                "x.bits",
                "--codec",
                "lz78",
            ]
        )
        assert code == 0, (scenario, text)
        report = json.loads(text)
        assert report["replay_ok"] is True
        if scenario != "extract":
            assert report["conservation_ok"] is True
        assert "final_tape_digest" in report


def test_xor_copy_needs_a_generator_or_a_non_empty_x(tmp_path, monkeypatch):
    (tmp_path / "s.bits").write_text("0110")
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["demon", "--scenario", "xor-copy", "--s-file", "s.bits"])
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "GeneratorMismatch",
        "message": "xor-copy needs --generator or a non-empty X",
    }


def test_demon_joules_are_the_ledger_bits_at_the_cli_temperature(tmp_path, monkeypatch):
    (tmp_path / "s.bits").write_text("0" * 64)
    monkeypatch.chdir(tmp_path)
    argv = ["demon", "--scenario", "extract-erase", "--s-file", "s.bits"]
    code, text = run_cli(argv + ["--temperature", "150"])
    assert code == 0, text
    report = json.loads(text)
    bits = Fraction(report["ledger_total_bits"])
    assert bits != 0
    assert report["ledger_total_joules"] == to_joules(bits, 150)
    code, text = run_cli(argv + ["--temperature", "0"])
    assert code == 1
    assert json.loads(text)["error"]["type"] == "NonPositiveTemperature"


def test_prbox_report():
    code, text = run_cli(["prbox", "--n", "256", "--seed", "7"])
    assert code == 0
    report = json.loads(text)
    assert report["pr_condition"] is True
    assert report["rates"]["a"] == "257/256"


def test_text_report_mode():
    code, text = run_cli(
        ["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--seed", "1", "--report", "text"]
    )
    assert code == 0
    assert "ceiling: 4/9" in text
    assert "{" not in text.splitlines()[0]


def test_domain_error_exit_code_one():
    code, text = run_cli(["clausius", "--n", "6", "--w", "3/4", "--delta", "1/2"])
    assert code == 1
    report = json.loads(text)
    assert report["error"]["type"] == "NonIntegralWeights"


def test_clausius_class_beyond_ceiling_is_refused_up_front():
    # the n = 20 source class holds C(20,10)^2 ~ 3.4e10 states
    start = time.perf_counter()
    code, text = run_cli(["clausius", "--n", "20", "--delta", "1/10", "--circuits", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "DomainTooLarge",
        "message": "WeightCouple(n=20, left_weight=10, right_weight=10) of 34134779536 states"
        " exceeds the 2^20 sweep ceiling",
    }


@pytest.mark.parametrize("count", ["0", "-3"])
def test_clausius_rejects_fewer_than_one_circuit(count):
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", count])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ValueError" and "circuits" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--circuit", "{missing}", "--input", "0"],
        ["compile", "--netlist", "{missing}"],
        ["bounds", "--s-file", "{missing}"],
        ["bounds", "--s-file", "{present}", "--x-file", "{missing}"],
        ["demon", "--scenario", "xor-copy", "--s-file", "{present}", "--generator", "{missing}"],
        ["compress", "--codec", "lz78", "--helper-file", "{missing}"],
        ["simulate", "--circuit", "{directory}", "--input", "0"],
    ],
    ids=["circuit", "netlist", "s-file", "x-file", "generator", "helper-file", "directory"],
)
def test_unreadable_input_file_is_a_structured_error(tmp_path, argv):
    present = tmp_path / "s.txt"
    present.write_text("0101\n")
    paths = {"missing": str(tmp_path / "nonexistent"), "present": str(present), "directory": str(tmp_path)}
    code, text = run_cli([arg.format(**paths) for arg in argv])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "UnreadableInput"
    assert str(tmp_path) in error["message"]


# an xor run-length record longer than any bit string: 142 bits of input
XOR_HUGE_RUN = "0" + str(encode_uint(2**70))


def test_xor_run_length_beyond_any_string_is_malformed():
    code, text = run_cli(["decompress", "--codec", "xor"], stdin_text=XOR_HUGE_RUN)
    assert code == 1
    assert json.loads(text)["error"]["type"] == "MalformedCode"


# a run length of 2^60 is a legal bit-string length that no host can hold: 122 bits of input
XOR_OUT_OF_MEMORY_RUN = "0" + str(encode_uint(2**60))


def test_xor_run_length_beyond_memory_is_a_structured_error():
    code, text = run_cli(["decompress", "--codec", "xor"], stdin_text=XOR_OUT_OF_MEMORY_RUN)
    assert code == 1
    assert json.loads(text)["error"]["type"] == "MemoryError"


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bounds", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["unknown-subcommand"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


def test_reports_carry_reproducibility_fields():
    code, text = run_cli(["prbox", "--n", "512", "--seed", "5"])
    assert code == 0
    report = json.loads(text)
    assert report["tool_version"]
    assert report["seed"] == 5
    assert report["config"]["command"] == "prbox"


def test_prbox_too_short_is_domain_error():
    code, text = run_cli(["prbox", "--n", "128", "--seed", "5"])
    assert code == 1
    assert json.loads(text)["error"]["type"] == "StringTooShort"


def test_simulate_trajectory_flag(tmp_path):
    from landauer.circuits import ReversibleCircuit, cnot, not_gate, save_circuit

    path = tmp_path / "c.json"
    save_circuit(ReversibleCircuit(2, (not_gate(0), cnot(0, 1))), str(path))
    code, text = run_cli(["simulate", "--circuit", str(path), "--input", "00", "--trajectory"])
    assert code == 0
    report = json.loads(text)
    assert report["trajectory"] == ["00", "10", "11"]
    assert report["output"] == "11"


@pytest.mark.parametrize(
    "doc, command, field",
    [
        ({"version": 1, "width": 1, "line_roles": ["input"]}, "simulate", "'gates'"),
        ({"version": 1, "line_roles": ["input"], "gates": []}, "simulate", "'width'"),
        ({"version": 1, "width": 2, "line_roles": ["input"] * 2, "gates": [{"kind": "cnot", "control": 0}]}, "simulate", "'target'"),
        ({"version": 1, "width": "2", "line_roles": ["input"] * 2, "gates": []}, "simulate", "'width'"),
        ([], "simulate", "JSON object"),
        ({"inputs": ["a"], "gates": [{"id": "g", "op": "not"}], "outputs": ["g"]}, "compile", "'args'"),
        ({"inputs": "a", "gates": [], "outputs": []}, "compile", "'inputs'"),
    ],
    ids=["no-gates", "no-width", "gate-without-target", "string-width", "not-an-object", "netlist-gate-without-args", "netlist-string-inputs"],
)
def test_malformed_document_is_a_structured_error(tmp_path, doc, command, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "simulate":
        argv = ["simulate", "--circuit", str(path), "--input", "00"]
    else:
        argv = ["compile", "--netlist", str(path)]
    code, text = run_cli(argv)
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "MalformedInput" and field in error["message"]


@pytest.mark.parametrize(
    "gate, message",
    [
        ({"kind": "swap", "targets": [0, 1]}, "circuit gate 1: unknown gate kind 'swap'"),
        ({"kind": "cnot", "control": -1, "target": 0}, "gate 1 "),
    ],
    ids=["unknown-kind", "negative-line"],
)
def test_an_invalid_gate_in_a_circuit_file_is_named_by_its_index(tmp_path, gate, message):
    doc = {"version": 1, "width": 2, "line_roles": ["input"] * 2, "gates": [{"kind": "not", "target": 0}, gate]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["simulate", "--circuit", str(path), "--input", "00"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith(message)


def test_unwritable_output_file_is_a_structured_error(tmp_path):
    target = tmp_path / "missing-dir" / "c.json"
    code, text = run_cli(
        ["compile", "--fig1", "--codec", "xor", "--block", "4", "--helper", "10", "--out", str(target)]
    )
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "UnwritableOutput" and str(target) in error["message"]


@pytest.mark.parametrize("block", ["40", "100000000000"])
def test_fig1_block_beyond_ceiling_is_refused_up_front(block):
    # 2^block blocks, then a 2^(block+1)-state register cube: the width is
    # compared as lines, so a huge block allocates nothing either
    start = time.perf_counter()
    code, text = run_cli(["compile", "--fig1", "--codec", "xor", "--block", block, "--helper", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "DomainTooLarge",
        "message": f"a block register of {int(block) + 1} lines exceeds the 2^20 sweep ceiling",
    }


def test_fig1_block_ceiling_follows_landauer_max_width(monkeypatch):
    argv = ["compile", "--fig1", "--codec", "xor", "--block", "5", "--helper", "1"]
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "5")
    code, text = run_cli(argv)
    assert code == 1 and json.loads(text)["error"]["type"] == "DomainTooLarge"
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "6")
    code, text = run_cli(argv)
    assert code == 0 and json.loads(text)["mode"] == "fig1"


@pytest.mark.parametrize("value", ["-3", "abc", ""])
def test_a_bad_landauer_max_width_is_named_in_the_error(monkeypatch, value):
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", value)
    code, text = run_cli(["clausius", "--n", "2", "--delta", "1/2", "--circuits", "1"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"LANDAUER_MAX_WIDTH must be a non-negative integer, got {value!r}"


def test_clausius_rejects_a_negative_gate_count():
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--gate-count", "-3"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ValueError" and "gate count" in error["message"]


def test_clausius_with_zero_gates_is_the_identity_experiment():
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--gate-count", "0"])
    assert code == 0
    report = json.loads(text)
    # the identity keeps every state in the source class
    assert report["gate_count"] == 0 and report["max_fraction"] == "0/1"
    assert report["within_ceiling"] is True


# every subcommand that echoes --temperature in its report
REPORT_ARGV = [
    ["bounds", "--s-file", "s.bits"],
    ["demon", "--scenario", "extract", "--s-file", "s.bits"],
    ["compile", "--fig1", "--codec", "xor", "--block", "4", "--helper", "10", "--out", "out.json"],
    ["simulate", "--circuit", "c.json", "--input", "0000"],
    ["clausius", "--n", "4", "--delta", "1/4", "--circuits", "1"],
    ["prbox", "--n", "256"],
]


@pytest.mark.parametrize(
    "argv, temperature",
    [
        # bounds, the first subcommand that refused them, keeps the bare ids
        pytest.param(argv, t, id=t if argv[0] == "bounds" else f"{argv[0]}-{t}")
        for argv in REPORT_ARGV
        for t in ("nan", "inf", "-inf", "0")
    ],
)
def test_non_finite_temperature_is_a_domain_error(tmp_path, monkeypatch, argv, temperature):
    (tmp_path / "s.bits").write_text("0" * 16)
    save_circuit(ReversibleCircuit(4), str(tmp_path / "c.json"))
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(argv + [f"--temperature={temperature}"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "NonPositiveTemperature"
    assert error["message"] == f"temperature must be finite and > 0 K, got {float(temperature)}"
    assert not (tmp_path / "out.json").exists()  # a refused compile writes no circuit


@pytest.mark.parametrize("command", ["simulate", "compile"])
def test_deeply_nested_document_is_a_structured_error(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    if command == "simulate":
        argv = ["simulate", "--circuit", str(path), "--input", "00"]
    else:
        argv = ["compile", "--netlist", str(path)]
    code, text = run_cli(argv)
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "MalformedInput" and "nested too deeply" in error["message"]


@pytest.mark.parametrize(
    "argv, what",
    [
        (["prbox", "--n", "100000000000"], "n = 100000000000 bits"),
        (
            ["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--gate-count", "100000000000"],
            "2 circuits x 100000000000 gates",
        ),
        (
            ["clausius", "--n", "2000000", "--delta", "1/4", "--circuits", "1", "--gate-count", "1"],
            "n = 2000000 with at least 4000000000000 class states",
        ),
    ],
    ids=["prbox-n", "clausius-gate-count", "clausius-n"],
)
def test_runaway_size_argument_is_refused_up_front(argv, what):
    start = time.perf_counter()
    code, text = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(text)["error"] == {"type": "DomainTooLarge", "message": f"{what} exceeds the 2^20 sweep ceiling"}


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["prbox", "--n", "{}"], 512),
        (["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--gate-count", "{}"], 256),
    ],
    ids=["prbox-n", "clausius-gate-count"],
)
def test_size_ceilings_follow_landauer_max_width(monkeypatch, argv, limit):
    # 2^9 = 512 prbox bits, or 2 circuits x 256 gates
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "9")
    code, text = run_cli([arg.format(limit + 1) for arg in argv])
    assert code == 1 and json.loads(text)["error"]["type"] == "DomainTooLarge"
    code, text = run_cli([arg.format(limit) for arg in argv])
    assert code == 0 and "error" not in json.loads(text)


@pytest.mark.parametrize("flag", ["--w", "--delta"])
def test_clausius_zero_denominator_is_a_domain_error(flag):
    argv = ["clausius", "--n", "4", "--delta", "1/4", flag, "1/0"]
    code, text = run_cli(argv)
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ValueError" and flag in error["message"]


# --- one parser per process ---------------------------------------------------------


def test_usage_error_then_valid_command_on_the_shared_parser():
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run_cli(["clausius", "--n", "4"])  # --delta is required
    assert exc.value.code == 2
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "10", "--seed", "42"])
    assert code == 0
    assert json.loads(text) == json.loads((GOLDEN / "clausius_n4.json").read_text())
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    code, text = run_cli(["prbox", "--n", "512", "--seed", "5"])
    assert code == 0 and json.loads(text)["config"] == {
        "command": "prbox", "n": 512, "report": "json", "seed": 5, "temperature": 300.0,
    }


# argv drawn from the CLI's own vocabulary.  The property runs under
# LANDAUER_MAX_WIDTH=8, and --n, --gate-count and --block reach past the
# ceilings that follow from it (prbox 256 bits, 256 class states, 3 circuits
# x 85 gates, a 7-bit block); --circuits <= 3, so no draw starts a long run
BITS = st.text(alphabet="01", max_size=10)
FILE = st.sampled_from(["{s}", "{x}", "{net}", "{circ}", "{missing}", "{dir}"])
CODEC = st.sampled_from(["lz78", "xor", "bookmark8", "identity", "gzip"])
FRACTION = st.sampled_from(["1/2", "3/4", "1/4", "1/6", "0", "1", "-1/2", "1/0", "x"])
SMALL = st.integers(-2, 6).map(str)
HUGE = st.just("100000000000")
COMMON = [
    ("--report", st.sampled_from(["json", "text", "xml"])),
    ("--seed", st.integers(-2, 9).map(str)),
    ("--temperature", st.sampled_from(["300", "0.5", "0", "-1", "hot", "nan", "inf"])),
]
VOCABULARY = {
    "compile": [
        ("--netlist", FILE),
        ("--fig1", None),
        ("--codec", CODEC),
        ("--block", st.one_of(st.integers(1, 9), st.integers(21, 64)).map(str) | HUGE),
        ("--helper", BITS),
        ("--out", st.sampled_from(["{out}", "{missing}/c.json"])),
    ],
    "simulate": [("--circuit", FILE), ("--input", BITS), ("--trajectory", None)],
    "compress": [("--codec", CODEC), ("--helper-file", FILE)],
    "decompress": [("--codec", CODEC), ("--helper-file", FILE)],
    "bounds": [("--s-file", FILE), ("--x-file", FILE), ("--codec", CODEC)],
    "demon": [
        ("--scenario", st.sampled_from(["extract", "xor-copy", "extract-erase", "erase-extract", "bogus"])),
        ("--s-file", FILE),
        ("--x-file", FILE),
        ("--codec", CODEC),
        ("--generator", FILE),
    ],
    "clausius": [
        ("--n", st.one_of(SMALL, st.integers(7, 40).map(str), st.just("2000000"))),
        ("--w", FRACTION),
        ("--delta", FRACTION),
        ("--circuits", st.integers(-1, 3).map(str)),
        ("--gate-count", st.one_of(st.integers(-3, 12), st.integers(80, 90)).map(str) | HUGE),
    ],
    "prbox": [("--n", st.one_of(SMALL, st.integers(250, 260).map(str), HUGE))],
}
# the flags a command needs; compile needs one of the two
REQUIRED = {
    "compile": st.sampled_from([["--netlist"], ["--fig1"]]),
    "simulate": st.just(["--circuit", "--input"]),
    "compress": st.just(["--codec"]),
    "decompress": st.just(["--codec"]),
    "bounds": st.just(["--s-file"]),
    "demon": st.just(["--scenario", "--s-file"]),
    "clausius": st.just(["--n", "--delta"]),
    "prbox": st.just([]),
}


def test_the_argv_vocabulary_names_every_option_of_each_subcommand():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(VOCABULARY)
    for name, sub in commands.choices.items():
        defined = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        assert defined == {flag for flag, _ in VOCABULARY[name] + COMMON}, name


@st.composite
def cli_argv(draw):
    """(argv with {file} placeholders, stdin text)."""
    command = draw(st.sampled_from([*VOCABULARY, "unknown-subcommand", "--version", "--help"]))
    flags = dict(VOCABULARY.get(command, []) + COMMON * (command in VOCABULARY))
    chosen = []
    if command in REQUIRED and draw(st.integers(0, 3)):  # mostly a complete command
        chosen += draw(REQUIRED[command])
    if flags:
        # any further subset in any order; required flags may still be missing
        chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None and draw(st.integers(0, 19)):  # now and then a value is missing
            argv.append(draw(flags[flag]))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "--n"])))
    stdin = ["", "0110\n", "10" * 8, "012", "1" * 30, XOR_HUGE_RUN, XOR_OUT_OF_MEMORY_RUN]
    return argv, draw(st.sampled_from(stdin))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "s").write_text("0110" * 8 + "\n")
    (root / "x").write_text("0111\n")
    save_netlist(
        IrreversibleCircuit(("a", "b"), (LogicGate("g", "xor", ("a", "b")),), ("g", "a")),
        str(root / "net"),
    )
    from landauer.circuits import ReversibleCircuit, cnot, fredkin, save_circuit

    save_circuit(ReversibleCircuit(4, (cnot(0, 1), fredkin(1, 2, 3))), str(root / "circ"))
    return {
        "s": str(root / "s"), "x": str(root / "x"), "net": str(root / "net"), "circ": str(root / "circ"),
        "missing": str(root / "missing"), "dir": str(root), "out": str(root / "out.json"),
    }


def run_cli_captured(argv, stdin_text):
    """(exit code, stdout, stderr) of one call, a usage error included."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@given(cli_argv())
@example((["clausius", "--n", "4", "--delta", "1/4", "--circuits", "1", "--temperature", "inf"], ""))
@settings(max_examples=200, deadline=None)
def test_any_argv_exits_0_1_or_2_and_the_shared_parser_keeps_no_state(cli_files, drawn):
    argv, stdin_text = drawn
    argv = [arg.format(**cli_files) for arg in argv]
    with pytest.MonkeyPatch.context() as m:
        m.setenv("LANDAUER_MAX_WIDTH", "8")
        shared = run_cli_captured(argv, stdin_text)
        assert shared[0] in (0, 1, 2), (argv, shared)
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
        fresh = run_cli_captured(argv, stdin_text)
    assert shared == fresh
    code, out, _ = shared
    # an error report, or a JSON report, is strict JSON: no NaN or Infinity
    if code == 1 or (
        code == 0 and argv[0] in REQUIRED and argv[0] not in ("compress", "decompress")
        and cli.build_parser().parse_args(argv).report == "json"
    ):
        json.loads(out, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# --- any JSON document loads or raises an error the CLI reports ----------------------

# the circuit and netlist formats' own keys and words, so that drawn
# documents often get past the first field checks
FORMAT_WORDS = sorted(
    {"version", "width", "line_roles", "gates", "kind", "controls", "control", "target", "targets"}
    | {"inputs", "outputs", "id", "op", "args", "a", "b", "g"}
    | {"toffoli", "cnot", "not", "fredkin"} | set(LINE_ROLES) | set(OPS)
)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats() | st.sampled_from(FORMAT_WORDS),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(FORMAT_WORDS), inner, max_size=6),
    max_leaves=40,
)


def assert_loads_or_reports(load, doc):
    try:
        loaded = load(doc)
    except (LandauerError, ValueError):
        return
    assert isinstance(loaded, (ReversibleCircuit, IrreversibleCircuit))


LOADERS = pytest.mark.parametrize("load", [circuit_from_json, netlist_from_json])


@LOADERS
@given(json_documents)
@example({"version": 1, "width": 2, "line_roles": ["input", "const_one"], "gates": [{"kind": "cnot", "control": 1, "target": 0}]})
@example({"inputs": ["a", "b"], "outputs": ["g"], "gates": [{"id": "g", "op": "xor", "args": ["a", "b"]}]})
@example({"version": 1, "width": 10**30, "line_roles": [], "gates": []})
@settings(max_examples=150, deadline=None)
def test_any_json_document_loads_or_raises_an_error_the_cli_reports(load, doc):
    assert_loads_or_reports(load, doc)


@LOADERS
def test_a_deeply_nested_document_loads_or_raises_an_error_the_cli_reports(load):
    # far deeper than the recursion limit; hypothesis would recurse to print it
    deep = []
    for _ in range(100_000):
        deep = [deep]
    for doc in (deep, {"version": 1, "width": 1, "line_roles": deep, "gates": [deep], "inputs": deep, "outputs": [deep]}):
        assert_loads_or_reports(load, doc)
