#!/usr/bin/env python3
"""Closed-loop benchmark of the landauer toolkit.

One client, one thread: each op starts only after the previous one returned.

    python3 bench/run.py --workload codec --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # one row per workload
    python3 bench/run.py --write-expected        # regenerate expected.json

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead.  See bench/README.md for the workloads and the
meaning of each metric.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported; LANDAUER_MAX_WIDTH keeps its default.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LANDAUER_MAX_WIDTH", None)

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_SECONDS = 150.0
REF_EVERY_S = 0.05  # loop time between reference samples

# Input of the reference kernel; it and reference_seconds() define the "ref"
# unit, so neither may change.
REF_TEXT = format(random.Random(1901).getrandbits(2048), "02048b")


def reference_seconds() -> float:
    """Duration of one run of a fixed pure-Python kernel (~0.5 ms).

    On a host shared with other tenants the same code can run up to 1.8x
    slower for minutes at a time.  Dividing each op's time by the kernel's
    time, sampled every REF_EVERY_S, cancels most of that drift.  The kernel
    does the kind of interpreter work the library does: an LZ78-style phrase
    parse and a bit-mask build over a 2048-bit string.
    """
    t0 = perf_counter()
    phrases: dict[str, int] = {}
    cur = ""
    out = []
    for ch in REF_TEXT:
        cand = cur + ch
        if cand in phrases:
            cur = cand
            continue
        out.append(format(phrases.get(cur, 0), "b"))
        phrases[cand] = len(phrases) + 1
        cur = ""
    mask = 0
    for i, ch in enumerate(REF_TEXT):
        if ch == "1":
            mask |= 1 << i
    return perf_counter() - t0


class RefClock:
    """Reference samples taken as a loop runs, every REF_EVERY_S of loop time.

    ``scales`` gives each op the median of the two samples before its
    midpoint and the two after; an op's time divided by it is in reference
    units.
    """

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._since = 0.0
        self.sample()
        self.sample()

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.values.append(reference_seconds())

    def advance(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= REF_EVERY_S:
            self.sample()
            self._since = 0.0

    def scales(self, midpoints: list[float]) -> np.ndarray:
        self.sample()
        self.sample()
        values = np.asarray(self.values)
        after = np.searchsorted(np.asarray(self.times), midpoints)
        return np.median(values[np.stack([after - 2, after - 1, after, after + 1])], axis=0)


def import_landauer():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "landauer" / "__init__.py").is_file():
        raise SystemExit(f"bench: no landauer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import landauer

    if Path(landauer.__file__).resolve().parent != SRC / "landauer":
        raise SystemExit(f"bench: imported landauer from {landauer.__file__}, not {SRC}")
    return landauer


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter: import, generate inputs, warm up; time to 'ready'."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return elapsed


def cli_import_seconds() -> float:
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import landauer.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout)


def environment(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "LANDAUER_MAX_WIDTH": os.environ.get("LANDAUER_MAX_WIDTH"),
        "platform": platform.platform(),
    }


def timed_loop(runner, ops, clock: RefClock) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Run ``ops`` (any iterable of op indices) in a closed loop.

    Returns each op's latency in seconds, and its latency and its loop
    iteration (op plus checks) in reference units.
    """
    midpoints, latencies, iterations = [], [], []
    for j in ops:
        t0 = perf_counter()
        latencies.append(runner.execute(j))
        t1 = perf_counter()
        midpoints.append((t0 + t1) / 2)
        iterations.append(t1 - t0)
        clock.advance(t1 - t0)
    scale = clock.scales(midpoints)
    return latencies, np.asarray(latencies) / scale, np.asarray(iterations) / scale


def run_end_to_end(runner, seconds: float, setup_s: float) -> dict:
    """Closed loop for ``seconds``, but at least MIN_SAMPLES ops."""
    wl = runner.workload
    for j in range(wl.warmup):
        runner.execute(j)

    def until_done():
        j = wl.warmup
        while True:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and j - wl.warmup >= MIN_SAMPLES) or elapsed >= MAX_SECONDS:
                return
            yield j
            j += 1

    clock = RefClock()
    start = perf_counter()
    latencies, ref_latencies, ref_iterations = timed_loop(runner, until_done(), clock)
    wall = clock.times[-2] - start  # scales() sampled twice when the loop ended
    return {
        "ops_per_kref": 1000 * len(latencies) / float(ref_iterations.sum()),
        "op_p50_ref": float(np.median(ref_latencies)),
        "op_p90_ref": p90(ref_latencies.tolist()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - runner.failed_ops / runner.attempted,
        "_raw": {
            "samples": len(latencies),
            "ops_per_s": len(latencies) / wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90(latencies) * 1e3,
        },
    }


def run_traced(runner, seed: int) -> dict:
    """The same fixed ops untraced, then traced; layer metrics from the spans."""
    from spans import CLI_SUBCOMMANDS, LAYERS, Tracer

    wl = runner.workload
    for j in range(wl.warmup):
        runner.execute(j)
    ops = range(wl.warmup, wl.warmup + wl.trace_ops)
    clock = RefClock()
    latencies, _, untraced = timed_loop(runner, ops, clock)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        _, _, traced = timed_loop(runner, ops, clock)
    finally:
        tracer.restore()
        runner.tracer = None

    metrics = tracer.layer_metrics()
    for layer in LAYERS:
        metrics[f"{layer}.failed"] += runner.failed_layers[layer]
    by_sub: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
    if wl.name == "cli":
        for j, latency in zip(ops, latencies):
            by_sub[runner.op(j)[0].split("-", 1)[0]].append(latency)
    for sub, samples in by_sub.items():
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
    metrics["cli.import_s"] = statistics.median(cli_import_seconds() for _ in range(IMPORT_REPEATS))
    metrics["bench.trace_overhead_frac"] = 1.0 - float(untraced.sum() / traced.sum())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.tsv.gz")
    return metrics


def result_line(spec: dict, metrics: dict, section: str, runner) -> dict:
    declared = {m["name"]: m["unit"] for m in spec[section]}
    measured = {k: v for k, v in metrics.items() if not k.startswith("_")}
    if set(declared) != set(measured):
        missing = sorted(set(declared) - set(measured))
        extra = sorted(set(measured) - set(declared))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": runner.failed_ops == 0,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }


def run_one(args) -> int:
    import workloads

    spec = load_spec()
    wl = workloads.WORKLOADS[args.workload]
    env = environment(wl.name, args.seed)
    setup_s = 0.0
    if not args.trace:
        setup_s = statistics.median(setup_seconds(wl.name, args.seed) for _ in range(SETUP_REPEATS))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        runner = workloads.Runner(wl, args.seed, workdir, load_expected())
        if args.trace:
            metrics = run_traced(runner, args.seed)
        else:
            metrics = run_end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    result = result_line(spec, metrics, section, runner)
    record = {
        "env": env,
        "raw": metrics.get("_raw"),
        "failures": [
            {"op": j, "kind": kind, "instance": inst, "check": check, "layer": layer}
            for j, kind, inst, check, layer in runner.failures
        ],
        **result,
    }
    name = f"result-{wl.name}-seed{args.seed}-trace{int(args.trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for j, kind, inst, check, layer in runner.failures[:20]:
        print(f"FAILED op {j} {wl.name}/{kind}#{inst} [{layer}]: {check}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print("raw " + json.dumps(metrics["_raw"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def setup_probe(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{wl.name}-", dir=OUT))
    try:
        runner = workloads.Runner(wl, args.seed, workdir, load_expected())
        for j in range(wl.warmup):
            runner.execute(j)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one row each, plus wall-clock figures."""
    import workloads

    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    raw_names = ("ops_per_s", "op_p50_ms", "op_p90_ms", "samples")
    columns = [f"{n}({units[n]})" for n in names] + ["failed_frac", *raw_names]
    print("workload".ljust(8) + "".join(c.rjust(22) for c in columns))
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name.ljust(8)} no result (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        raw = next(json.loads(ln[4:]) for ln in lines if ln.startswith("raw "))
        values = [result["metrics"][n]["value"] for n in names]
        values += [result["failed"] / result["attempted"], *(raw[n] for n in raw_names)]
        print(name.ljust(8) + "".join(f"{v:.6g}".rjust(22) for v in values))
        if proc.returncode != 0 or result["failed"]:
            status = 1
    return status


def write_expected(args) -> int:
    """Run every instance of every pool once and record its output digest."""
    import workloads

    digests = {}
    bad = 0
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="expected-", dir=OUT))
    try:
        for wl in workloads.WORKLOADS.values():
            digests[wl.name] = {}
            for name, kind in wl.kinds.items():
                parts = []
                for i in range(kind.pool):
                    inputs = kind.make(i, workdir)
                    summary, failed = kind.check(*inputs, kind.run(*inputs))
                    if failed:
                        bad += 1
                        print(f"{wl.name}/{name}#{i}: {failed}", file=sys.stderr)
                    parts.append(workloads.digest(summary))
                digests[wl.name][name] = "".join(parts)
                print(f"{wl.name}/{name}: {kind.pool} instances", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{bad} instances failed their checks; expected.json not written", file=sys.stderr)
        return 1
    doc = {
        "about": "first digest_hex hex digits of sha256 of each instance's output summary, "
        "instance i at offset i*digest_hex",
        "digest_hex": workloads.DIGEST_HEX,
        "digests": digests,
    }
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    import_landauer()
    if args.write_expected:
        return write_expected(args)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
