"""Paired timing of a parent tree and this tree inside one process.

    python3 tools/bench_ab.py --parent ../parent --band default \\
        --instances 3000 --out ab.json

The parent is any directory holding a checkout of the parent commit.  Its
``src/framekit`` and this tree's are copied into a temporary directory as
two packages (every import inside framekit is relative, so a copy imports
under any name) and imported into one worker process, with BLAS at one
thread before numpy loads.  Suite instance i (``replay_instance`` of the
band's config at seed 901) runs on both sides back to back, and the side
that goes first alternates from instance to instance.  Each run is timed by
``time.thread_time``, with ``gc`` off and one collection every 50
instances, outside the timed runs.  One untimed instance per side (index
M, past the timed ones) comes first, so neither side pays numpy's first
calls.

Two workers run, one per import order, since the package imported first
can run slower.  Two more time an A/A control: this tree against a copy
of itself.  When ``--parent`` is this tree, the comparison is the
control, and it runs once.  For each worker the output gives the
ratio of summed times (second side over first) with a bootstrap 95%
interval: 2,000 resamples of the instances, at a fixed seed.  The line
printed per worker also gives each side's mean milliseconds per
instance; the JSON keeps the summed seconds.  A gain
reads as shown when both orders' intervals lie on the same side of 1 and
outside the control's.

The exit status is 1 when the two sides return different verdicts for
an instance (compared by ``repr`` of their dicts), so a run also checks
bit identity of the verdicts.

Limits: thread CPU time leaves out time spent waiting (on I/O, on the
scheduler, on other processes), and only suite instances are timed.
Import, file reading and the CLI (the ``cli-files`` benchmark workload)
are not covered.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BANDS = {
    "default": {},
    "n20": {"dim_range": (20, 20), "count_range": (20, 40)},
    "n50": {"dim_range": (50, 50), "count_range": (50, 50)},
    "n50-wide": {"dim_range": (50, 50), "count_range": (300, 300)},
}
SEED = 901
RESAMPLES = 2000
BOOTSTRAP_SEED = 0
COLLECT_EVERY = 50


def _worker(packages: list[str], band: str, instances: int) -> dict:
    """Time ``replay_instance`` on both packages, imported in the order given."""
    sides = [importlib.import_module(name) for name in packages]
    configs = [p.SuiteConfig(seed=SEED, **BANDS[band]) for p in sides]
    for side, config in zip(sides, configs):  # first calls into numpy, untimed
        side.replay_instance(config, instances)
    seconds, mismatched = ([], []), []
    gc.disable()
    for i in range(instances):
        if i % COLLECT_EVERY == 0:
            gc.collect()
        verdicts = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            start = time.thread_time()
            out = sides[side].replay_instance(configs[side], i)
            seconds[side].append(time.thread_time() - start)
            verdicts[side] = repr({tid: v.to_dict() for tid, v in out.items()})
        if verdicts[0] != verdicts[1]:
            mismatched.append(i)
    gc.enable()
    return {"seconds": seconds, "mismatched_instances": mismatched}


def _ratio(first: list[float], second: list[float]) -> dict:
    """Ratio of summed times, second over first, with its paired bootstrap
    95% interval (the same resampled instances on both sides)."""
    a, b = np.array(first), np.array(second)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    ratios = np.empty(RESAMPLES)
    for k in range(RESAMPLES):
        take = rng.integers(0, a.size, a.size)
        ratios[k] = b[take].sum() / a[take].sum()
    lo, hi = np.percentile(ratios, [2.5, 97.5])
    return {"ratio": float(b.sum() / a.sum()), "ci95": [float(lo), float(hi)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--band", choices=BANDS, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.instances < 2:
        parser.error("--instances must be at least 2")
    if args.worker:
        print(json.dumps(_worker(args.worker, args.band, args.instances)))
        return 0

    comparisons = {"A/A control": ("change", "change_copy")}
    if args.parent.resolve() != ROOT:
        comparisons = {"change over parent": ("parent", "change"), **comparisons}
    doc = {
        "tool": "tools/bench_ab.py",
        "band": args.band,
        "config": BANDS[args.band],
        "instances": args.instances,
        "seed": SEED,
        "parent": subprocess.run(
            ["git", "-C", str(args.parent), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None,
        "timer": "time.thread_time, gc off, one collection every 50 instances",
        "bootstrap": {"resamples": RESAMPLES, "seed": BOOTSTRAP_SEED, "interval": "2.5-97.5 percentiles"},
        "limits": "thread CPU time leaves out time spent waiting; suite instances only, no cli-files",
        "machine": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "comparisons": {},
    }
    mismatched = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in {side for pair in comparisons.values() for side in pair}:
            tree = args.parent if name == "parent" else ROOT
            shutil.copytree(tree / "src" / "framekit", Path(tmp, f"fk_{name}"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        for label, (base, other) in comparisons.items():
            runs = doc["comparisons"][label] = {}
            for first, second in ((base, other), (other, base)):
                cmd = [sys.executable, __file__, "--parent", str(args.parent), "--band", args.band,
                       "--instances", str(args.instances), "--out", os.devnull,
                       "--worker", f"fk_{first}", f"fk_{second}"]
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
                if proc.returncode:
                    sys.exit(f"worker {first}, {second} failed:\n{proc.stderr}")
                result = json.loads(proc.stdout)
                times = dict(zip((first, second), result["seconds"]))
                r = _ratio(times[base], times[other])
                runs[f"{first} imported first"] = {
                    f"{other}_over_{base}": r,
                    "seconds": {side: sum(t) for side, t in times.items()},
                    "mismatched_instances": result["mismatched_instances"],
                }
                mismatched |= bool(result["mismatched_instances"])
                means = ", ".join(f"{side} {1e3 * sum(times[side]) / args.instances:.3f}"
                                  for side in (base, other))
                print(f"{label}, {first} imported first: {other}/{base} x{r['ratio']:.4f} "
                      f"(95% {r['ci95'][0]:.4f}-{r['ci95'][1]:.4f}), "
                      f"mean ms per instance {means}, "
                      f"{len(result['mismatched_instances'])} instances with differing verdicts")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
