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
        "states > 1 << width",
        "states >= 1 << width",
        ("tests/test_cli.py::test_size_ceilings_follow_landauer_max_width[clausius-gate-count]",),
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
        "        report.update(args.func(args))\n",
        "fields = args.func(args)\n        report = _base_report(args)\n        report.update(fields)\n",
        ("tests/test_cli.py::test_bad_temperature_is_refused_before_any_work",),
    ),
    Mutant(
        "read-text-passes-unicode-errors",
        "errors.py",
        "except (OSError, UnicodeDecodeError) as exc:",
        "except OSError as exc:",
        ("tests/test_cli.py::test_input_that_does_not_parse_is_refused_with_its_type[s-file-not-utf8]",),
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
