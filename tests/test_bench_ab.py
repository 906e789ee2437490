"""Smoke tests of ``tools/bench_ab.py``, the in-process paired timer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ab.py"


def run_tool(parent, out, instances):
    cmd = [sys.executable, str(TOOL), "--parent", str(parent), "--band", "default",
           "--instances", str(instances), "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def test_a_a_run_in_both_orders(tmp_path):
    # With this tree as its parent the comparison is the A/A control alone.
    proc = run_tool(ROOT, tmp_path / "ab.json", 10)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "ab.json").read_text())
    assert doc["machine"]["blas_threads"] == 1
    runs = doc["comparisons"]["A/A control"]
    assert list(doc["comparisons"]) == ["A/A control"]
    assert list(runs) == ["change imported first", "change_copy imported first"]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, run in zip(lines, runs.values()):
        r = run["change_copy_over_change"]
        assert r["ratio"] > 0 and 0 < r["ci95"][0] <= r["ci95"][1]
        assert run["mismatched_instances"] == []
        # Each side's mean per instance, in ms, is the JSON sum over 10.
        means = line.split("mean ms per instance ")[1].split(", ")[:2]
        for text, side in zip(means, ("change", "change_copy")):
            name, ms = text.split()
            assert name == side and float(ms) == pytest.approx(100 * run["seconds"][side], abs=1e-3)


def test_differing_verdicts_exit_non_zero(tmp_path):
    # A parent whose angle-sum tolerance differs moves every instance's
    # angle-sum margins, so every compared instance differs.
    src = tmp_path / "parent" / "src" / "framekit"
    shutil.copytree(ROOT / "src" / "framekit", src, ignore=shutil.ignore_patterns("__pycache__"))
    theorems = src / "theorems.py"
    text = theorems.read_text()
    assert text.count("IDENTITY_TOL = 1e-10\n") == 1
    theorems.write_text(text.replace("IDENTITY_TOL = 1e-10\n", "IDENTITY_TOL = 2e-10\n"))
    proc = run_tool(tmp_path / "parent", tmp_path / "ab.json", 2)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads((tmp_path / "ab.json").read_text())
    for run in doc["comparisons"]["change over parent"].values():
        assert run["mismatched_instances"] == [0, 1]
    for run in doc["comparisons"]["A/A control"].values():
        assert run["mismatched_instances"] == []
