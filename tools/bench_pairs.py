"""Paired benchmark runs of a parent tree and a changed tree.

    python3 tools/bench_pairs.py --parent ../parent --seeds 1301-1310 \\
        --workloads suite-n50 suite-default cli-files --seconds 30 \\
        --claim suite-n50:ops_per_s --out BENCH_13.json

Each workload runs one pair per seed: ``benchmarks/run.py --trace 0`` of
the parent tree and of the changed tree (by default the tree holding this
script), one after the other, with the side that runs first alternating
from pair to pair so drift in machine speed falls on both sides alike.
The parent is any directory holding a checkout of the parent commit, for
example a ``git worktree`` or a ``git archive`` copy.

The output file keeps every run and, per workload and end-to-end metric,
each side's median and quartiles (``statistics.quantiles``, inclusive
method), the change-over-parent ratio of the medians and the pairs the
change won (ties count for neither side).  It is rewritten after every
pair, so an interrupted run keeps the pairs it finished.  The verdict printed
at the end follows the paired-run rule: a claimed gain holds when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; any other metric is within
its bound when the change's median is no worse than the parent's by more
than the ``BENCHMARK.json`` bound, and unresolved when the parent's own
spread is wider than that bound and not every change run beats every
parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """``1301-1310`` or ``1301,1305,1309``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last stdout line is the result."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(runs: list[dict], spec: dict) -> dict:
    """Per metric: each side's spread, the ratio of medians and the wins."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = {side: [by[p, side][name] for p in pairs] for side in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = (_spread(values[side]) for side in SIDES)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": parent,
            "change": change,
            "change_over_parent_median": change["median"] / parent["median"],
            "change_wins": f"{wins}/{len(pairs)}",
        }
    return metrics


def _verdict(name: str, summary: dict, bound: float, claimed: bool, runs: list[dict]) -> str:
    parent, change = summary["parent"], summary["change"]
    wins, pairs = (int(x) for x in summary["change_wins"].split("/"))
    sign = 1 if summary["better"] == "higher" else -1
    gain = sign * (change["median"] - parent["median"])
    text = (f"{summary['change_wins']} wins, median {parent['median']:.4g} -> {change['median']:.4g} "
            f"(x{summary['change_over_parent_median']:.3f}), parent IQR {parent['iqr']:.4g}")
    if claimed:
        met = wins >= 0.9 * pairs and gain > parent["iqr"]
        return f"claim {'met' if met else 'NOT met'}: {text}"
    if -gain > bound * parent["median"]:
        return f"WORSE than its bound {bound:.0%}: {text}"
    values = {side: [r[name] for r in runs if r["side"] == side] for side in SIDES}
    every_run_better = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
    if parent["iqr"] > bound * parent["median"] and not every_run_better:
        return f"unresolved (parent spread above the {bound:.0%} bound): {text}"
    return f"within its {bound:.0%} bound: {text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="changed tree (default: this one)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="one seed per pair, e.g. 1301-1310")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--parent-commit", default=None, help="recorded as 'parent' (default: git HEAD of --parent)")
    parser.add_argument("--description", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 10:
        parser.error("the paired-run rule needs at least 10 pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commit = args.parent_commit or subprocess.run(
        ["git", "-C", str(trees["parent"]), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip() or None
    doc = {
        "description": args.description,
        "parent": commit,
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "machine": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": 1,
            "note": "benchmarks/run.py fixes OPENBLAS/OMP/MKL threads at 1",
        },
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = _run(trees[side], workload, seed, args.seconds)
                runs.append({
                    "pair": pair, "seed": seed, "side": side, "ran_first": side == order[0],
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    **{m: v["value"] for m, v in result["metrics"].items()},
                })
                print(f"{workload} pair {pair} seed {seed} {side}: ops_per_s {runs[-1]['ops_per_s']:.4g}",
                      file=sys.stderr)
            doc["workloads"][workload] = {
                "seeds": args.seeds[: pair + 1],
                "pairs": pair + 1,
                "metrics": _summary(runs, spec) if pair else {},
                "runs": runs,
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    verdicts = {}
    failed = False
    for workload, entry in doc["workloads"].items():
        bad = [r for r in entry["runs"] if not r["correct"] or r["failed"]]
        if bad:
            failed = True
            print(f"{workload}: {len(bad)} runs incorrect or with failed operations")
        for name, summary in entry["metrics"].items():
            line = _verdict(name, summary, bounds[name], (workload, name) == claim, entry["runs"])
            failed |= line.startswith(("claim NOT", "WORSE"))
            verdicts[f"{workload}:{name}"] = line
            print(f"{workload} {name}: {line}")
    if claim:
        doc["claim"] = {"workload": claim[0], "metric": claim[1], "result": verdicts[":".join(claim)]}
    doc["verdicts"] = verdicts
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
