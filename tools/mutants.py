"""Mutation checks: each registered mutant must fail the tests it names.

A mutant is one edit to a file of src/landauer: an old text that occurs
exactly once in the file, and the text that replaces it.  For each mutant
the tool copies src/, tests/ and pyproject.toml into a temporary directory,
applies the edit there and runs `python -m pytest -q -x <tests>` in that
directory under a timeout.  The copy carries its own pyproject.toml, whose
`pythonpath = ["src"]` then points pytest at the mutated tree and never at
this checkout's src/.  Before any mutant runs, the named tests run once on
an unmutated copy and must pass, so that a failure means the mutant.

Each mutant is reported as
    killed     a named test failed (or the mutated package failed to import),
    survived   every named test passed,
    stale      the old text does not occur exactly once, or pytest found no
               such test,
    timed out  the run took longer than TIMEOUT_S seconds.
Standard library only, besides pytest in the child processes:

    python tools/mutants.py

Exits 0 when every mutant is killed, else 1.  A change that adds a check
adds its mutant here; tests/test_mutants.py checks that every old text
still occurs once and that every named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "landauer"
TIMEOUT_S = 300
# pytest exit codes: 1 tests failed, 2 a collection error (the mutant broke an import)
KILLED_CODES = (1, 2)


class Mutant(NamedTuple):
    id: str
    path: str  # relative to src/landauer/
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant(
        "experiment-tail-from-wdn-plus-1",
        "clausius.py",
        "sum(m.bit_count() for m in left[wdn:])",
        "sum(m.bit_count() for m in left[wdn + 1 :])",
        ("tests/test_clausius.py::test_experiment_report_agrees_with_the_public_functions",),
    ),
    Mutant(
        "tail-ceiling-from-wdn-plus-1",
        "clausius.py",
        "for k in range(wdn, n + 1)",
        "for k in range(wdn + 1, n + 1)",
        ("tests/test_clausius.py::test_tail_from_zero_pinned",),
    ),
    Mutant(
        "trend-target-weight-without-k",
        "clausius.py",
        "_class_size(k * n, k * wdn)",
        "_class_size(k * n, wdn)",
        ("tests/test_clausius.py::test_experiment_report_agrees_with_the_public_functions",),
    ),
    Mutant(
        "trend-source-weight-without-k",
        "clausius.py",
        "_class_size(k * n, k * wn)",
        "_class_size(k * n, wn)",
        ("tests/test_clausius.py::test_experiment_report_agrees_with_the_public_functions",),
    ),
    Mutant(
        "point-maximum-as-minimum",
        "clausius.py",
        "max_point = max(max_point,",
        "max_point = min(max_point,",
        ("tests/test_clausius.py::test_experiment_report_agrees_with_the_public_functions",),
    ),
    Mutant(
        "tail-maximum-as-minimum",
        "clausius.py",
        "max_tail = max(max_tail,",
        "max_tail = min(max_tail,",
        ("tests/test_clausius.py::test_experiment_report_agrees_with_the_public_functions",),
    ),
    Mutant(
        "zero-gate-circuits-uncounted",
        "clausius.py",
        "states=circuits * max(gc, 1)",
        "states=circuits * gc",
        ("tests/test_clausius.py::test_zero_gate_circuits_still_count_toward_the_sweep_ceiling",),
    ),
    Mutant(
        "other-total-weight-counted",
        "clausius.py",
        "    if target.left_weight + target.right_weight != weight:\n        return 0\n",
        "",
        ("tests/test_reference_kernels.py::test_class_count_equals_the_per_state_reference",),
    ),
    Mutant(
        "sample-slot-rule-dropped",
        "clausius.py",
        "a = width - 1 if j1 == j0 else j1",
        "a = j1",
        ("tests/test_clausius.py::test_random_conservative_circuit_draws_equal_random_sample",),
    ),
    Mutant(
        "sample-pool-branch-at-22",
        "clausius.py",
        "if width <= 21:",
        "if width <= 22:",
        ("tests/test_clausius.py::test_random_conservative_circuit_draws_equal_random_sample",),
    ),
    Mutant(
        "grid-accepts-negative-n",
        "clausius.py",
        '    if n < 0:\n        raise LandauerError(f"n must be non-negative, got {n}")\n',
        "",
        ("tests/test_clausius.py::test_refusals_name_what_is_wrong[negative-n-ratio]",),
    ),
    Mutant(
        "fig1-pairs-keys-in-reverse",
        "synth.py",
        "zip(sorted(sigma.values()), sorted(sigma))",
        "zip(sorted(sigma.values()), sorted(sigma, reverse=True))",
        ("tests/test_reference_kernels.py::test_fig1_build_transposes_the_cycles_of_the_dense_permutation",),
    ),
    Mutant(
        "fig1-pairs-keys-in-block-order",
        "synth.py",
        "zip(sorted(sigma.values()), sorted(sigma))",
        "zip(sorted(sigma.values()), list(sigma))",
        ("tests/test_reference_kernels.py::test_fig1_build_transposes_the_cycles_of_the_dense_permutation",),
    ),
    Mutant(
        "fig1-pairs-codes-in-block-order",
        "synth.py",
        "zip(sorted(sigma.values()), sorted(sigma))",
        "zip(list(sigma.values()), sorted(sigma))",
        ("tests/test_reference_kernels.py::test_fig1_build_transposes_the_cycles_of_the_dense_permutation",),
    ),
    Mutant(
        "fig1-chain-when-nothing-moves",
        "synth.py",
        "max(0, reg_width - 3) if sigma else 0",
        "max(0, reg_width - 3)",
        ("tests/test_synth.py::test_fig1_all_raw_block8_is_one_mode_flip_without_chain_ancillas",),
    ),
    Mutant(
        "lz78-codes-undo-leaves-child-set",
        "compress.py",
        "                del child[-2:]\n                child[k] = 0\n",
        "                del child[-2:]\n",
        ("tests/test_reference_kernels.py::test_batch_codes_equal_the_per_value_compress_loop[lz78]",),
    ),
    Mutant(
        "lz78-codes-undo-keeps-the-token",
        "compress.py",
        "                child[k] = 0\n                tokens.pop()\n",
        "                child[k] = 0\n",
        ("tests/test_reference_kernels.py::test_batch_codes_equal_the_per_value_compress_loop[lz78]",),
    ),
    Mutant(
        "xor-codes-without-run-length",
        "compress.py",
        '    codes[mask] = "0" + str(encode_uint(block))\n',
        "",
        ("tests/test_reference_kernels.py::test_batch_codes_equal_the_per_value_compress_loop[xor]",),
    ),
    Mutant(
        "block-codes-batch-length-unchecked",
        "compress.py",
        "    if batch is not None and len(batch) != 1 << block:\n"
        '        raise LandauerError(f"{codec.name} wrote {len(batch)} block codes for {1 << block} blocks")\n',
        "",
        ("tests/test_compress.py::test_a_batch_of_the_wrong_length_is_refused",),
    ),
    Mutant(
        "block-codes-batch-skips-round-trip",
        "compress.py",
        "        back = decompress(code, h)\n",
        "        back = decompress(code, h) if batch is None else d\n",
        ("tests/test_compress.py::test_a_batch_still_round_trips_every_block",),
    ),
    Mutant(
        "states-refused-at-the-ceiling",
        "circuits.py",
        "max(states - 1, 0).bit_length() > width",
        "max(states, 0).bit_length() > width",
        ("tests/test_cli.py::test_size_ceilings_follow_landauer_max_width[clausius-gate-count]",),
    ),
    Mutant(
        "states-ceiling-without-the-zero-floor",
        "circuits.py",
        "max(states - 1, 0).bit_length()",
        "(states - 1).bit_length()",
        ("tests/test_circuits.py::test_states_ceiling_refuses_exactly_what_the_power_would",),
    ),
    Mutant(
        "lines-refused-at-the-ceiling",
        "circuits.py",
        "if lines > width or",
        "if lines >= width or",
        ("tests/test_cli.py::test_fig1_block_ceiling_follows_landauer_max_width",),
    ),
    Mutant(
        "normalize-without-early-return",
        "circuits.py",
        "    if is_toffoli_only(c):\n        return c\n",
        "",
        ("tests/test_circuits.py::test_normalize_to_toffoli_returns_a_toffoli_only_circuit_itself",),
    ),
    Mutant(
        "lz78-parse-cache-of-4",
        "compress.py",
        "@functools.lru_cache(maxsize=8)\ndef _lz78_parse",
        "@functools.lru_cache(maxsize=4)\ndef _lz78_parse",
        ("tests/test_compress.py::test_lz78_texts_are_walked_once_and_estimates_write_no_code",),
    ),
    Mutant(
        "lz78-length-without-final-slot",
        "compress.py",
        "    if slot:\n        length += end.bit_length()\n",
        "",
        ("tests/test_reference_kernels.py::test_lz78_length_is_the_length_of_the_written_code",),
    ),
    Mutant(
        "lz78-run-one-token-too-long",
        "compress.py",
        "(1 << w) - size",
        "(1 << w) - size + 1",
        ("tests/test_reference_kernels.py::test_lz78_trie_matches_dict_reference",),
    ),
    Mutant(
        "cone-drops-second-argument",
        "irrev.py",
        "                live.add(a)\n                live.add(b)\n",
        "                live.add(a)\n",
        ("tests/test_reference_kernels.py::test_lowered_evaluate_equals_dict_reference",),
    ),
    Mutant(
        "random-netlist-without-inputs",
        "irrev.py",
        '    if num_inputs < 1:\n        raise LandauerError("random_netlist needs at least one input")\n',
        "",
        ("tests/test_irrev.py::test_refusals_name_what_is_wrong[random-no-inputs]",),
    ),
    Mutant(
        "evaluate-xor-without-byte-fixup",
        "irrev.py",
        "value[a] ^ value[b] ^ 48",
        "value[a] ^ value[b]",
        ("tests/test_reference_kernels.py::test_lowered_evaluate_equals_dict_reference",),
    ),
    Mutant(
        "evaluate-one-output-gathers-an-empty-slice",
        "irrev.py",
        "slice(output_nodes[0], output_nodes[0] + 1)",
        "slice(output_nodes[0], output_nodes[0])",
        ("tests/test_reference_kernels.py::test_lowered_evaluate_equals_dict_reference",),
    ),
    Mutant(
        "random-netlist-with-negative-gates",
        "irrev.py",
        '    if num_gates < 0:\n        raise LandauerError(f"random_netlist needs a non-negative gate count, got {num_gates}")\n',
        "",
        ("tests/test_irrev.py::test_refusals_name_what_is_wrong[random-negative-gates]",),
    ),
    Mutant(
        "temperature-check-dropped",
        "cli.py",
        "    to_joules(0, args.temperature)\n",
        "",
        ("tests/test_cli.py::test_non_finite_temperature_is_a_domain_error",),
    ),
    Mutant(
        "base-report-after-the-work",
        "cli.py",
        "report = _base_report(args)  # refuses a bad --temperature before any work\n"
        "            report.update(args.func(args))\n",
        "fields = args.func(args)\n            report = _base_report(args)\n            report.update(fields)\n",
        ("tests/test_cli.py::test_bad_temperature_is_refused_before_any_work",),
    ),
    Mutant(
        "read-text-passes-unicode-errors",
        "errors.py",
        "return fh.read()\n    except (OSError, UnicodeDecodeError) as exc:",
        "return fh.read()\n    except OSError as exc:",
        ("tests/test_cli.py::test_input_that_does_not_parse_is_refused_with_its_type[s-file-not-utf8]",),
    ),
    Mutant(
        "read-stdin-reads-a-closed-stdin",
        "errors.py",
        '    if sys.stdin is None:\n        raise UnreadableInput("cannot read stdin: it is closed")\n',
        "",
        ("tests/test_cli.py::test_closed_stdin_is_unreadable_input",),
    ),
    Mutant(
        "write-stdout-writes-a-closed-stdout",
        "errors.py",
        '    if stream is None or stream.closed:\n        raise UnwritableOutput("cannot write stdout: it is closed")\n',
        "",
        ("tests/test_cli.py::test_a_closed_stdout_turns_success_into_a_refusal",),
    ),
    Mutant(
        "write-stdout-passes-a-full-device",
        "errors.py",
        "        stream.flush()\n    except OSError as exc:",
        "        stream.flush()\n    except BrokenPipeError as exc:",
        ("tests/test_cli.py::test_unwritable_stdout_is_refused_on_stderr[dev-full-simulate]",),
    ),
    Mutant(
        "write-stdout-leaves-the-write-to-the-exit-flush",
        "errors.py",
        "        stream.flush()\n",
        "",
        ("tests/test_cli.py::test_unwritable_stdout_is_refused_on_stderr[dev-full-simulate]",),
    ),
    Mutant(
        "write-stdout-keeps-the-failed-descriptor",
        "errors.py",
        "        os.dup2(devnull, stream.fileno())\n",
        "",
        ("tests/test_cli.py::test_a_pipe_with_no_reader_is_refused_on_stderr[simulate]",),
    ),
    Mutant(
        "stdout-refusal-reported-on-stdout",
        "cli.py",
        "sys.stderr.write(_error_report(exc))",
        'print(_error_report(exc), end="")',
        ("tests/test_cli.py::test_a_closed_stdout_turns_success_into_a_refusal",),
    ),
    Mutant(
        "injective-proof-without-reverse-pass",
        "circuits.py",
        "_apply(c._prog + c._prog[::-1], list(cube), (1 << 2**n) - 1)",
        "_apply(c._prog, list(cube), (1 << 2**n) - 1)",
        ("tests/test_reference_kernels.py::test_row_proof_agrees_with_the_marking_pass",),
    ),
    Mutant(
        "injective-proof-runs-forward-twice",
        "circuits.py",
        "_apply(c._prog + c._prog[::-1], list(cube), (1 << 2**n) - 1)",
        "_apply(c._prog + c._prog, list(cube), (1 << 2**n) - 1)",
        ("tests/test_reference_kernels.py::test_row_proof_agrees_with_the_marking_pass",),
    ),
    Mutant(
        "injective-proof-runs-on-the-cube-it-compares-with",
        "circuits.py",
        "list(cube), (1 << 2**n) - 1) == cube",
        "cube, (1 << 2**n) - 1) == cube",
        ("tests/test_reference_kernels.py::test_both_injectivity_paths_refuse_a_kernel_that_copies",),
    ),
    Mutant(
        "injective-proof-refuses-width-0",
        "circuits.py",
        "    cube = cube_rows(n)\n",
        "    if not n:\n        return False\n    cube = cube_rows(n)\n",
        ("tests/test_reference_kernels.py::test_row_proof_agrees_with_the_marking_pass",),
    ),
    Mutant(
        "cube-doubling-without-the-new-line-shift",
        "circuits.py",
        "rows.append(((1 << size) - 1) << size)",
        "rows.append((1 << size) - 1)",
        ("tests/test_reference_kernels.py::test_cube_rows_equal_packed_arange_at_every_width",),
    ),
    Mutant(
        "cnot-copies-instead-of-adding",
        "circuits.py",
        "            rows[t] ^= rows[b]\n",
        "            rows[t] = rows[b]\n",
        ("tests/test_synth.py::test_simulation_resilience_any_admitted_circuit_keeps_each_fiber_apart",),
    ),
    Mutant(
        "table-path-drops-the-last-result-line",
        "synth.py",
        "for j, row in enumerate(got))",
        "for j, row in enumerate(got[:-1]))",
        ("tests/test_synth.py::test_the_table_path_equals_the_per_input_path_and_the_scalar_reference[bookmark8]",),
    ),
    Mutant(
        "table-block-check-dropped",
        "synth.py",
        "    if isinstance(oracle, BlockTable) and oracle.block != k:\n"
        '        raise WidthMismatch(f"expected {oracle.block} data bits, got {k}")\n',
        "",
        ("tests/test_synth.py::test_a_table_of_another_block_is_refused_after_the_sweep_ceiling[one-input-line]",),
    ),
    Mutant(
        "table-fold-with-and",
        "synth.py",
        "functools.reduce(operator.or_, diffs)",
        "functools.reduce(operator.and_, diffs)",
        ("tests/test_synth.py::test_the_table_path_equals_the_per_input_path_and_the_scalar_reference[bookmark8]",),
    ),
    Mutant(
        "mismatches-taken-highest-bit-first",
        "synth.py",
        "low = mask & -mask",
        "low = 1 << mask.bit_length() - 1",
        ("tests/test_synth.py::test_the_table_path_equals_the_per_input_path_and_the_scalar_reference[bookmark8]",),
    ),
    Mutant(
        "first-offender-violation-before-its-mismatch",
        "synth.py",
        "min(mismatches[:1] + violations[:1]",
        "min(violations[:1] + mismatches[:1]",
        ("tests/test_synth.py::test_first_offender_names_the_input_and_first_line_a_table_differs_on",),
    ),
    Mutant(
        "role-superset-check-dropped",
        "circuits.py",
        "known = _ROLE_SET.issuperset(roles)",
        "known = True",
        ("tests/test_circuits.py::test_refusals_name_what_is_wrong[first-of-two-unknown-roles]",),
    ),
    Mutant(
        "unhashable-role-escapes-as-type-error",
        "circuits.py",
        "except TypeError:  # an unhashable role",
        "except KeyError:  # an unhashable role",
        ("tests/test_circuits.py::test_refusals_name_what_is_wrong[unhashable-role]",),
    ),
    Mutant(
        "cnot-head-without-its-pad",
        "circuits.py",
        "(CNOT, 1, 1): (CNOT, 0)",
        "(CNOT, 1, 1): (CNOT,)",
        ("tests/test_reference_kernels.py::test_lowering_equals_the_pad_and_slice_steps_and_per_role_masks",),
    ),
    Mutant(
        "decode-uint-ignores-the-offset",
        "bitstring.py",
        "end = 2 * i - start + 1",
        "end = 2 * i + 1",
        ("tests/test_reference_kernels.py::test_decode_uint_equals_the_per_character_scan",),
    ),
    Mutant(
        "ctrl-c-exits-1",
        "cli.py",
        "        return 130\n",
        "        return 1\n",
        ("tests/test_cli.py::test_ctrl_c_exits_130_with_one_line_on_stderr[in-the-handler]",),
    ),
    Mutant(
        "filters-take-the-report-options",
        "cli.py",
        'p = sub.add_parser(name, help=f"{name} stdin -> stdout")',
        'p = sub.add_parser(name, parents=[common], help=f"{name} stdin -> stdout")',
        (
            "tests/test_cli.py::test_a_filter_refuses_the_report_options",
            "tests/test_cli.py::test_a_filter_namespace_holds_only_what_the_filter_reads",
        ),
    ),
    Mutant(
        "compress-runs-the-decoder",
        "cli.py",
        'args.command == "decompress"',
        'args.command == "compress"',
        ("tests/test_cli.py::test_compress_decompress_pipe_roundtrip",),
    ),
    Mutant(
        "malformed-gate-escapes-the-gate-check",
        "circuits.py",
        "except (TypeError, ValueError):",
        "except ():",
        ("tests/test_circuits.py::test_refusals_name_what_is_wrong[unhashable-kind]",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    return (PACKAGE / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def _copy(to: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, to / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", to / "pyproject.toml")


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the tests run in tree; raises TimeoutExpired."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LANDAUER_MAX_WIDTH")}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode


def run(mutant: Mutant) -> str:
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        target = tree / "src" / "landauer" / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        try:
            code = _pytest(tree, mutant.tests)
        except subprocess.TimeoutExpired:
            return "timed out"
    return "killed" if code in KILLED_CODES else "survived" if code == 0 else "stale"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass on an unmutated copy (pytest exit {code})")
        return 1
    outcomes = []
    for mutant in MUTANTS:
        start = perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<10} {mutant.id} ({perf_counter() - start:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
