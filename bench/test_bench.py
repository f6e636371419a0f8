"""Self-tests of the benchmark; stdlib only.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_landauer()
import workloads  # noqa: E402  (needs the package path set by import_landauer)


def last_json(argv: list[str]) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *argv],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def runner(self, workload: str, expected=None) -> workloads.Runner:
        expected = run.load_expected() if expected is None else expected
        return workloads.Runner(workloads.WORKLOADS[workload], 7, self.workdir, expected)

    def test_every_op_kind_passes_its_checks(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                runner = self.runner(name)
                for j in range(len(wl.mix)):
                    runner.execute(j)
                self.assertEqual(runner.failures, [])
                self.assertEqual(runner.attempted, len(wl.mix))

    def test_corrupted_digest_is_a_failed_op(self):
        expected = run.load_expected()
        runner = self.runner("blocks", expected)
        kind, instance, _ = runner.op(0)
        digests = expected["blocks"][kind]
        at = instance * workloads.DIGEST_HEX
        flipped = "0" if digests[at] != "0" else "1"
        expected["blocks"][kind] = digests[:at] + flipped + digests[at + 1 :]
        runner.execute(0)
        runner.execute(1)
        self.assertEqual(runner.failed_ops, 1)
        j, failed_kind, failed_instance, check, layer = runner.failures[0]
        self.assertEqual((j, failed_kind, failed_instance), (0, kind, instance))
        self.assertTrue(check.startswith("digest"), check)
        self.assertEqual(layer, workloads.BLOCKS.kinds[kind].layer)

    def test_printed_metrics_are_the_declared_ones(self):
        spec = run.load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                code, result = last_json(
                    ["--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
                )
                self.assertEqual(code, 0)
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                declared = {m["name"]: m["unit"] for m in spec[section]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)

    def test_refuses_to_run_without_the_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
