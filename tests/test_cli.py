import argparse
import io
import json
import os
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauer import cli, errors
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


# the two plain filters, which take none of the report subcommands' options
FILTERS = ("compress", "decompress")


@pytest.mark.parametrize("command", FILTERS)
@pytest.mark.parametrize("option, value", [("--report", "json"), ("--seed", "1"), ("--temperature", "300")])
def test_a_filter_refuses_the_report_options(command, option, value):
    code, out, err = run_cli_captured([command, "--codec", "lz78", option, value], "0110")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {option} {value}" in err


def test_a_filter_namespace_holds_only_what_the_filter_reads():
    args = cli.build_parser().parse_args(["decompress", "--codec", "xor"])
    assert sorted(vars(args)) == ["codec", "command", "func", "helper_file"]


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


def test_bound_joules_are_the_certified_bits_at_the_cli_temperature(tmp_path, monkeypatch):
    (tmp_path / "s.bits").write_text("0" * 64)
    (tmp_path / "x.bits").write_text("1011")
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["bounds", "--s-file", "s.bits", "--x-file", "x.bits", "--temperature", "150"])
    assert code == 0, text
    quantities = {q["quantity"]: q for q in json.loads(text)["quantities"]}
    # WV certifies the side its codec achieves, EC the cost its codec achieves
    for name, certified in (("WV", "lower_bits"), ("EC", "upper_bits")):
        q = quantities[name]
        assert q[certified] != 0
        assert q["joules"] == {"T": 150.0, "value": to_joules(q[certified], 150)}


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


DEMON_PAIRS = {
    # the mode-bit lz78 encoding of 0^128 takes 99 bits, so extraction frees 29 zeros
    "compressible": ("0" * 128, "1011"),
    # the lz78 code overflows 8 bits: the raw escape spills its mode bit into the zero cell
    "spill": ("10110011", "0110"),
}


@pytest.mark.parametrize("pair", sorted(DEMON_PAIRS))
def test_demon_reports_golden(tmp_path, monkeypatch, pair):
    # the whole report of every scenario: ledger labels, order and values,
    # the transcript, the final tape digest and the conservation fields
    s, x = DEMON_PAIRS[pair]
    (tmp_path / "s.bits").write_text(s)
    (tmp_path / "x.bits").write_text(x)
    monkeypatch.chdir(tmp_path)
    reports = {}
    for scenario in ("extract", "extract-erase", "erase-extract", "xor-copy"):
        code, text = run_cli(["demon", "--scenario", scenario, "--s-file", "s.bits", "--x-file", "x.bits"])
        assert code == 0, text
        reports[scenario] = json.loads(text)
    assert reports == json.loads((GOLDEN / f"demon_{pair}.json").read_text())


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
    assert error == {"type": "LandauerError", "message": f"circuits must be at least 1, got {count}"}


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


@pytest.mark.filterwarnings("ignore:'landauer.cli' found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code, report",
    [
        (["--version"], 0, None),
        (["prbox", "--n", "0"], 1, {"type": "LandauerError", "message": "n must be >= 1"}),
    ],
    ids=["version", "refusal"],
)
def test_the_module_run_as_main_exits_with_the_code_main_returns(monkeypatch, argv, code, report):
    monkeypatch.setattr(sys, "argv", ["landauer", *argv])
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        runpy.run_module("landauer.cli", run_name="__main__")
    assert exc.value.code == code
    if report is None:
        assert out.getvalue().strip() == cli.__version__
    else:
        assert json.loads(out.getvalue())["error"] == report


NOT_UTF8 = b"01\xff10\n"
NOT_UTF8_REPORT = ("UnreadableInput", "cannot read {path!r}: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte")


@pytest.mark.parametrize(
    "argv, content, report",
    [
        (["bounds", "--s-file", "{path}"], NOT_UTF8, NOT_UTF8_REPORT),
        (["compress", "--codec", "identity", "--helper-file", "{path}"], NOT_UTF8, NOT_UTF8_REPORT),
        (["simulate", "--circuit", "{path}", "--input", "0"], NOT_UTF8, NOT_UTF8_REPORT),
        (["simulate", "--circuit", "{path}", "--input", "0"], b"{\"version\": 1,", ("MalformedInput", "circuit is not JSON: Expecting property name enclosed in double quotes: line 1 column 15 (char 14)")),
        (["compile", "--netlist", "{path}"], b"netlist", ("MalformedInput", "netlist is not JSON: Expecting value: line 1 column 1 (char 0)")),
        (["compile", "--netlist", "{path}"], b"[" + b"1" * 5000 + b"]", ("MalformedInput", "netlist is not JSON: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit")),
        (["clausius", "--n", "4", "--delta", "1/4", "--w", "abc"], b"", ("LandauerError", "--w must be a fraction p/q with q != 0, got 'abc'")),
    ],
    ids=["s-file-not-utf8", "helper-not-utf8", "circuit-not-utf8", "circuit-not-json", "netlist-not-json", "netlist-int-past-digit-limit", "w-not-a-fraction"],
)
def test_input_that_does_not_parse_is_refused_with_its_type(tmp_path, argv, content, report):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, text = run_cli([arg.format(path=path) for arg in argv])
    assert code == 1
    kind, message = report
    assert json.loads(text)["error"] == {"type": kind, "message": message.format(path=str(path))}


def test_stdin_that_is_not_utf8_is_unreadable_input(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["compress", "--codec", "identity"])
    assert code == 1
    assert json.loads(out.getvalue())["error"] == {
        "type": "UnreadableInput",
        "message": "cannot read stdin: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }


def test_closed_stdin_is_unreadable_input(monkeypatch):
    error = {"type": "UnreadableInput", "message": "cannot read stdin: it is closed"}
    # the shell closes fd 0 before it starts the CLI, so Python sets sys.stdin to None
    argv = ["sh", "-c", 'exec "$0" -m landauer.cli compress --codec lz78 <&-', sys.executable]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["error"] == error
    monkeypatch.setattr(sys, "stdin", None)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["compress", "--codec", "lz78"]) == 1
    assert json.loads(out.getvalue())["error"] == error


def _landauer(argv, redirect="", **kwargs):
    """The CLI run as a module in a fresh process, its command line ending
    in the shell redirection `redirect`; stderr is captured as text.  Its
    stdout is block-buffered, as by default, so that a write can fail at
    the flush rather than at once."""
    script = f'exec "$0" -m landauer.cli "$@" {redirect}'
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": src}
    return subprocess.run(
        ["sh", "-c", script, sys.executable, *argv], stderr=subprocess.PIPE, text=True, timeout=60, env=env, **kwargs
    )


def _unwritable_stdout(reason):
    error = {"type": "UnwritableOutput", "message": f"cannot write stdout: {reason}"}
    return {"tool_version": cli.__version__, "error": error}


# a report and the plain filter; the trajectory is longer than a pipe's first write
STDOUT_COMMANDS = pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["simulate", "--circuit", "{circuit}", "--input", "0110", "--trajectory"], ""),
        (["compress", "--codec", "lz78"], "0110\n"),
    ],
    ids=["simulate", "compress"],
)


def _stdout_argv(tmp_path, argv):
    save_circuit(ReversibleCircuit(4), str(tmp_path / "c.json"))
    return [arg.format(circuit=tmp_path / "c.json") for arg in argv]


@STDOUT_COMMANDS
@pytest.mark.parametrize(
    "redirect, reason", [(">/dev/full", "No space left on device"), (">&-", "it is closed")], ids=["dev-full", "closed"]
)
def test_unwritable_stdout_is_refused_on_stderr(tmp_path, argv, stdin_text, redirect, reason):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    done = _landauer(_stdout_argv(tmp_path, argv), redirect, input=stdin_text)
    # one report and nothing else: no traceback, and no second error from the flush at exit
    assert (done.returncode, json.loads(done.stderr)) == (1, _unwritable_stdout(reason))


@STDOUT_COMMANDS
def test_a_pipe_with_no_reader_is_refused_on_stderr(tmp_path, argv, stdin_text):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes
    try:
        done = _landauer(_stdout_argv(tmp_path, argv), input=stdin_text, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, json.loads(done.stderr)) == (1, _unwritable_stdout("Broken pipe"))


def test_a_failed_write_points_the_stdout_descriptor_at_devnull():
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = io.StringIO()
    with open(write_end, "w") as stream, redirect_stdout(stream), redirect_stderr(err):
        assert main(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "1"]) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert json.loads(err.getvalue()) == _unwritable_stdout("Broken pipe")


@pytest.mark.parametrize("closed", [None, io.StringIO()], ids=["none", "closed-stream"])
def test_a_closed_stdout_turns_success_into_a_refusal(closed):
    if closed is not None:
        closed.close()
    err = io.StringIO()
    with redirect_stdout(closed), redirect_stderr(err):
        assert main(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "1"]) == 1
    assert json.loads(err.getvalue()) == _unwritable_stdout("it is closed")


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["_cmd_clausius", "write_stdout"], ids=["in-the-handler", "in-the-write"])
def test_ctrl_c_exits_130_with_one_line_on_stderr(monkeypatch, where):
    monkeypatch.setattr(cli, where, _interrupt)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a parser that reads the patched handler
    code, out, err = run_cli_captured(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "1"], "")
    assert (code, out, err) == (130, "", "landauer: interrupted\n")


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
    "gate, kind, message",
    [
        ({"kind": "swap", "targets": [0, 1]}, "MalformedInput", "circuit gate 1: unknown gate kind 'swap'"),
        ({"kind": "cnot", "control": -1, "target": 0}, "LandauerError", "gate 1 "),
    ],
    ids=["unknown-kind", "negative-line"],
)
def test_an_invalid_gate_in_a_circuit_file_is_named_by_its_index(tmp_path, gate, kind, message):
    doc = {"version": 1, "width": 2, "line_roles": ["input"] * 2, "gates": [{"kind": "not", "target": 0}, gate]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["simulate", "--circuit", str(path), "--input", "00"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == kind and error["message"].startswith(message)


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
    assert error["type"] == "LandauerError"
    assert error["message"] == f"LANDAUER_MAX_WIDTH must be a non-negative integer, got {value!r}"


def test_clausius_rejects_a_negative_gate_count():
    code, text = run_cli(["clausius", "--n", "4", "--delta", "1/4", "--circuits", "2", "--gate-count", "-3"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error == {"type": "LandauerError", "message": "gate count must be non-negative, got -3"}


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


# the library calls through which a report command reads its input or does its work
WORK = (
    "_read_bits", "load_circuit", "load_netlist", "build_fig1_compressor",
    "bennett_compile", "clausius_experiment", "generate_pr_quadruple",
)


def _no_work(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before --temperature was checked")

    return refuse


@pytest.mark.parametrize("argv", REPORT_ARGV, ids=[argv[0] for argv in REPORT_ARGV])
def test_bad_temperature_is_refused_before_any_work(tmp_path, monkeypatch, argv):
    (tmp_path / "s.bits").write_text("0" * 16)
    save_circuit(ReversibleCircuit(4), str(tmp_path / "c.json"))
    monkeypatch.chdir(tmp_path)
    for name in WORK:
        monkeypatch.setattr(cli, name, _no_work(name))
    for temperature in ("nan", "0"):
        code, text = run_cli(argv + [f"--temperature={temperature}"])
        assert code == 1
        assert json.loads(text)["error"]["type"] == "NonPositiveTemperature"


@pytest.mark.parametrize(
    "argv",
    [
        ["clausius", "--n", "4", "--delta", "1/0"],
        ["demon", "--scenario", "xor-copy", "--s-file", "s.bits"],  # no generator and an empty X
        ["bounds", "--s-file", "missing.bits"],
    ],
    ids=["bad-fraction", "no-generator", "missing-file"],
)
def test_a_bad_temperature_is_the_refusal_reported_beside_another_fault(tmp_path, monkeypatch, argv):
    (tmp_path / "s.bits").write_text("0110")
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(argv + ["--temperature=-1"])
    assert code == 1
    assert json.loads(text)["error"]["type"] == "NonPositiveTemperature"


@pytest.mark.parametrize(
    "argv",
    # compile --fig1 at block 3 without a helper has no ancilla and no helper lines
    [*REPORT_ARGV, ["compile", "--fig1", "--codec", "xor", "--block", "3"]],
    ids=[*(argv[0] for argv in REPORT_ARGV), "compile-empty-lists"],
)
def test_the_text_report_has_the_top_level_keys_of_the_json_report(tmp_path, monkeypatch, argv):
    (tmp_path / "s.bits").write_text("0" * 16)
    save_circuit(ReversibleCircuit(4), str(tmp_path / "c.json"))
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(argv)
    assert code == 0, doc
    code, text = run_cli(argv + ["--report", "text"])
    assert code == 0
    lines = text.splitlines()
    assert {line.split(": ")[0].split(".")[0] for line in lines} == set(json.loads(doc))
    report = json.loads(doc)
    for key, value in report.items():
        if value in ([], {}):
            assert f"{key}: {value}" in lines


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
            "2 circuits x 100000000000 gates, each circuit counted as at least one gate,",
        ),
        (
            ["clausius", "--n", "2000000", "--delta", "1/4", "--circuits", "1", "--gate-count", "1"],
            "n = 2000000 with at least 4000000000000 class states",
        ),
        (
            ["clausius", "--n", "4", "--delta", "1/4", "--circuits", str(2**20 + 1), "--gate-count", "0"],
            f"{2**20 + 1} circuits x 0 gates, each circuit counted as at least one gate,",
        ),
    ],
    ids=["prbox-n", "clausius-gate-count", "clausius-n", "clausius-zero-gates"],
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


def test_prbox_runs_under_a_huge_ceiling(monkeypatch):
    monkeypatch.setenv("LANDAUER_MAX_WIDTH", "1000000000000")  # a ceiling of 2^(10^12) states, never built
    start = time.perf_counter()
    code, text = run_cli(["prbox", "--n", "256"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "error" not in json.loads(text)


@pytest.mark.parametrize("flag", ["--w", "--delta"])
def test_clausius_zero_denominator_is_a_domain_error(flag):
    argv = ["clausius", "--n", "4", "--delta", "1/4", flag, "1/0"]
    code, text = run_cli(argv)
    assert code == 1
    error = json.loads(text)["error"]
    assert error == {"type": "LandauerError", "message": f"{flag} must be a fraction p/q with q != 0, got '1/0'"}


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
FILE = st.sampled_from(["{s}", "{x}", "{net}", "{circ}", "{missing}", "{dir}", "{binary}"])
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
    count = 0
    for name, sub in commands.choices.items():
        defined = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        assert defined == {flag for flag, _ in VOCABULARY[name] + COMMON * (name not in FILTERS)}, name
        count += len(defined)
    assert count == 45


@st.composite
def cli_argv(draw):
    """(argv with {file} placeholders, stdin text)."""
    command = draw(st.sampled_from([*VOCABULARY, "unknown-subcommand", "--version", "--help"]))
    flags = dict(VOCABULARY.get(command, []) + COMMON * (command in VOCABULARY and command not in FILTERS))
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
    (root / "binary").write_bytes(NOT_UTF8)
    save_netlist(
        IrreversibleCircuit(("a", "b"), (LogicGate("g", "xor", ("a", "b")),), ("g", "a")),
        str(root / "net"),
    )
    from landauer.circuits import ReversibleCircuit, cnot, fredkin, save_circuit

    save_circuit(ReversibleCircuit(4, (cnot(0, 1), fredkin(1, 2, 3))), str(root / "circ"))
    return {
        "s": str(root / "s"), "x": str(root / "x"), "net": str(root / "net"), "circ": str(root / "circ"),
        "missing": str(root / "missing"), "dir": str(root), "out": str(root / "out.json"),
        "binary": str(root / "binary"),
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
    # a refusal is a LandauerError, or a result too large for memory
    if code == 1:
        assert json.loads(out)["error"]["type"] in REFUSALS, (argv, out)
    # an error report, or a JSON report, is strict JSON: no NaN or Infinity
    if code == 1 or (
        code == 0 and argv[0] in REQUIRED and argv[0] not in FILTERS
        and cli.build_parser().parse_args(argv).report == "json"
    ):
        json.loads(out, parse_constant=_refuse_constant)


REFUSALS = {"MemoryError"} | {
    name for name, kind in vars(errors).items() if isinstance(kind, type) and issubclass(kind, LandauerError)
}


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
    except LandauerError:
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
