"""Shows that every correctness check of the benchmark can fail.

    python3 benchmarks/selfcheck.py

Runs real framekit operations, confirms that each check accepts their
outputs, then corrupts one value at a time and confirms that the check
rejects it.  Prints one line per corruption and exits 1 if any corrupted
value is accepted.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import run  # sets the BLAS thread count and locates src/
import checks
from checks import CheckFailed
from workloads import CliFiles, SuiteDefault

failures = 0


def expect_reject(label, fn, *args):
    global failures
    try:
        fn(*args)
    except CheckFailed as exc:
        print(f"rejects {label}: {exc}")
        return
    failures += 1
    print(f"ACCEPTED {label}")


def corrupt(results, path, value):
    out = copy.deepcopy(results)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return out


def suite_checks(fk):
    wl = SuiteDefault(fk, seed=3, workdir=None)
    for op in wl.round_ops(0):
        verdicts = op.run()
        calls = list(op.capture.calls)
        op.check(verdicts, {})
        kinds = {(name, bool(b.get("norm_preserving", False))) for name, b, _ in calls}
        if len(kinds) == 3:
            break
    for name, bound, (out, achieved) in calls:
        target = bound["target_mu"]
        if name == "generate_perturbed_frame":
            phi, psi = np.asarray(bound["phi"].vectors), np.array(out.vectors)
            np_mode = bool(bound.get("norm_preserving", False))
            tag = "norm-preserving" if np_mode else "offset"
            checks.frame_generation(phi, target, np_mode, psi, achieved)
            expect_reject(f"{tag} frame constant off by 1e-6", checks.frame_generation,
                          phi, target, np_mode, psi, achieved * (1 + 1e-6))
            expect_reject(f"{tag} frame constant outside its window", checks.frame_generation,
                          phi, 0.9 * achieved, np_mode, psi, achieved)
            if np_mode:
                bent = psi.copy()
                bent[0] *= 1 + 1e-7
                mu = float(np.linalg.svd(phi - bent, compute_uv=False)[0])
                expect_reject("norm-preserving output with a norm moved by 1e-7", checks.frame_generation,
                              phi, target, True, bent, mu)
        else:
            w = [(s.basis, wt) for s, wt in bound["w"].members]
            v = [(s.basis, wt) for s, wt in out.members]
            checks.fusion_generation(w, target, v, achieved)
            expect_reject("fusion constant off by 1e-6", checks.fusion_generation, w, target, v, achieved * (1 + 1e-6))
            expect_reject("fusion constant outside its window", checks.fusion_generation, w, 0.9 * achieved, v, achieved)
            expect_reject("fusion weight changed", checks.fusion_generation, w, target,
                          [(v[0][0], v[0][1] * 1.5)] + v[1:], achieved)
            expect_reject("fusion basis not orthonormal", checks.fusion_generation, w, target,
                          [(v[0][0] * 1.01, v[0][1])] + v[1:], achieved)
            expect_reject("fusion rank changed", checks.fusion_generation, w, target,
                          [(np.hstack([v[0][0], v[0][0][:, :1]]), v[0][1])] + v[1:], achieved)
    as_dicts = {tid: v.to_dict() for tid, v in verdicts.items()}
    met = next(tid for tid, v in as_dicts.items() if v["hypotheses_met"])
    expect_reject("a met hypothesis with a failed inequality", checks.verdicts_pass,
                  corrupt(as_dicts, (met, "inequality_pass"), False))
    expect_reject("a replay with different output", checks.same_output, "a" * 64, "b" * 64)


def cli_checks(fk, workdir):
    wl = CliFiles(fk, seed=3, workdir=workdir)
    outputs = {}
    for op in wl.round_ops(0):
        if op.known_fault:
            continue
        stdout = op.run()
        op.check(stdout, outputs)
        outputs[op.key] = json.loads(stdout)["results"]

    def rejects(label, key, path, value):
        op = next(o for o in wl.ops if o.key == key)
        bad = json.dumps({"results": corrupt(outputs[key], path, value)})
        expect_reject(label, op.check, bad, dict(outputs))

    scale = lambda x: x * (1 + 1e-6)  # noqa: E731
    rejects("frame upper bound", ("analyze", "frame0"), ("bounds", "upper"), scale)
    rejects("frame lower bound", ("analyze", "frame0"), ("bounds", "lower"), scale)
    rejects("frame upper redundancy", ("analyze", "frame1"), ("redundancy", "upper"), scale)
    rejects("frame lower redundancy", ("analyze", "frame1"), ("redundancy", "lower"), scale)
    rejects("frame mean redundancy", ("analyze", "frame1"), ("redundancy", "mean"), scale)
    rejects("is_frame", ("analyze", "frame2"), ("bounds", "is_frame"), False)
    rejects("is_riesz_basis", ("analyze", "identity3"), ("is_riesz_basis",), False)
    rejects("fusion ranks", ("analyze", "dependent0"), ("ranks",), lambda r: [r[0] + 1] + r[1:])
    rejects("fusion upper bound", ("analyze", "fusion0"), ("bounds", "upper"), scale)
    rejects("fusion lower redundancy", ("analyze", "dependent1"), ("redundancy", "lower"), scale)
    rejects("fusion is_frame", ("analyze", "fusion1"), ("bounds", "is_frame"), False)
    rejects("frame verify constant", ("verify", "frame1"), ("verdicts", 0, "predicted", "mu"), scale)
    rejects("fusion verify constant", ("verify", "fusion0"), ("verdicts", 0, "predicted", "mu"), scale)
    rejects("verify gate that should hold", ("verify", "frame3"), ("verdicts", 0, "hypotheses_met"), False)
    rejects("verify failed inequality", ("verify", "fusion1"), ("verdicts", 1, "inequality_pass"), False)
    rejects("infimum cosine r", ("angles", "span-a0"), ("angles", "r"), lambda x: x + 1e-6)
    rejects("supremum cosine s", ("angles", "span-a1"), ("angles", "s"), lambda x: x - 1e-6)
    rejects("angle subspace dimension", ("angles", "span-a2"), ("dim_v",), lambda d: d - 1)
    rejects("perturb achieved constant", ("perturb", "frame2"), ("achieved_mu",), scale)
    rejects("perturb norm-preserving target", ("perturb", "frame0"), ("target_mu",), lambda t: 0.5 * t)
    identity = outputs[("analyze", "identity3")]
    expect_reject("is_frame changed under rescaling", checks.same_decisions,
                  corrupt(identity, ("bounds", "is_frame"), False), identity)
    planes = outputs[("analyze", "planes3")]
    expect_reject("ranks changed under rescaling", checks.same_decisions,
                  corrupt(planes, ("ranks",), [1, 1]), planes)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    fk = run._load_framekit()
    workdir = run.WORK / "selfcheck"
    try:
        suite_checks(fk)
        cli_checks(fk, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} corrupted value(s) accepted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
