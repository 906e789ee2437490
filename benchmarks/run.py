"""framekit benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

Imports framekit from ``src/`` next to this directory, builds the
workload's inputs from the seed, runs whole rounds of operations until
``--seconds`` of operation time have been measured, checks every
operation's output outside the timed region, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it is a
summary with sample counts and the tail percentiles that apply.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: OpenBLAS otherwise takes every core of a shared
# machine and its thread start-up and contention dominate small kernels.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from checks import CheckFailed, same_output
from workloads import OpFailed, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 11


def _load_framekit():
    """Import framekit and its CLI afresh from SRC (drops any earlier import)."""
    for name in [m for m in sys.modules if m == "framekit" or m.startswith("framekit.")]:
        del sys.modules[name]
    fk = importlib.import_module("framekit")
    importlib.import_module("framekit.cli")  # also binds fk.fileio
    if Path(fk.__file__).resolve().parent != SRC / "framekit":
        raise ImportError(f"framekit was imported from {fk.__file__}, not from {SRC}")
    return fk


class Runner:
    """Runs rounds of operations, timing each and checking it afterwards."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.failures: dict[str, int] = {}
        self.digests: dict = {}
        self.earlier: dict = {}
        self.norm_bits_changed = 0

    def run_op(self, op) -> float:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except OpFailed as exc:
            elapsed = time.perf_counter() - t0
            self._record(op, elapsed, failure=str(exc))
            return elapsed
        except Exception:  # an operation that raises is counted, not fatal
            elapsed = time.perf_counter() - t0
            self._record(op, elapsed, failure=traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - t0
        self._check(op, result, elapsed)
        return elapsed

    def _record(self, op, elapsed, failure=None):
        self.attempted += 1
        self.latencies.append(elapsed)
        if failure is not None:
            self.failed += 1
            msg = f"{op.key}: {failure}"
            self.failures[msg] = self.failures.get(msg, 0) + 1

    def _check(self, op, result, elapsed):
        try:
            digest = op.check(result, self.earlier)
            if hasattr(op, "norm_bits_changed"):
                self.norm_bits_changed += op.norm_bits_changed()
            same_output(self.digests.setdefault(op.key, digest), digest)
        except CheckFailed as exc:
            if op.known_fault:
                self._record(op, elapsed, failure=f"known fault: {exc}")
                return
            self.incorrect.append(f"{op.key}: {exc}")
        self._record(op, elapsed)

    def run_rounds(self, seconds: float, first_round: int = 0, min_rounds: int = 1) -> tuple[int, float]:
        """Whole rounds until ``seconds`` of operation time; returns
        (rounds, operation seconds)."""
        spent = 0.0
        r = first_round
        while r - first_round < min_rounds or spent < seconds:
            for op in self.workload.round_ops(r):
                spent += self.run_op(op)
            r += 1
        return r - first_round, spent

    def warm_up(self) -> None:
        """Run and check the first operation once, untimed and uncounted.

        This finishes lazy set-up in numpy and framekit before timing, and
        its timed repeat must print the same output: a replay check on
        every run.
        """
        saved = (self.attempted, self.failed, dict(self.failures))
        self.run_op(self.workload.round_ops(0)[0])
        self.attempted, self.failed, self.failures = saved
        self.latencies.clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "framekit" / "__init__.py").is_file():
        print(f"error: framekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()  # each repetition starts from the same heap
            t0 = time.perf_counter()
            fk = _load_framekit()
            workload = WORKLOADS[args.workload](fk, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        runner = Runner(workload)
        runner.warm_up()
        summary = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            # Round 0 runs every operation untraced and traced, in
            # alternating order so drift in machine speed cancels; the
            # difference is the tracing overhead.  Per-layer figures come
            # from the traced runs only.
            tracer = tracing.Tracer(fk)
            ops0 = workload.round_ops(0)
            untraced_s = traced0_s = 0.0
            for i, op in enumerate(ops0):
                for traced in (i % 2 == 1, i % 2 == 0):
                    if traced:
                        with tracer.active():
                            traced0_s += runner.run_op(op)
                    else:
                        untraced_s += runner.run_op(op)
            with tracer.active():
                runner.run_rounds(args.seconds - traced0_s, first_round=1, min_rounds=0)
            traced_ops = runner.attempted - len(ops0)
            metrics = tracer.layer_metrics(traced_ops)
            metrics["trace.overhead_s"] = (traced0_s - untraced_s) / len(ops0)
            WORK.mkdir(parents=True, exist_ok=True)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write_spans(spans_path)
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
            summary.update(traced_ops=traced_ops, spans=len(tracer.span_name), spans_file=str(spans_path.relative_to(ROOT)))
        else:
            rounds, timed_s = runner.run_rounds(args.seconds)
            lat_ms = [1e3 * t for t in runner.latencies]
            n = len(lat_ms)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": (runner.attempted - runner.failed) / timed_s,
                "op_ms_p50": statistics.median(lat_ms),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
            summary.update(rounds=rounds, timed_s=timed_s, samples={"op_ms": n, "setup_s": len(setup_times)})
            if n >= 100:
                cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
                summary["op_ms_p90"] = cuts[89]
                if n >= 1000:
                    summary["op_ms_p99"] = cuts[98]
        summary["norm_bits_changed"] = runner.norm_bits_changed
        for msg, count in sorted(runner.failures.items()):
            print(f"failed x{count}: {msg}", file=sys.stderr)
        for msg in runner.incorrect[:20]:
            print(f"INCORRECT: {msg}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
