"""The three benchmark workloads: inputs, rounds of operations, checks.

A workload is built from a seed by ``WORKLOADS[name](fk, seed, workdir)``
where ``fk`` is the imported framekit package.  ``round_ops(r)`` returns
the operations of round ``r``; every operation has a ``key`` (two
operations with one key do identical work), a timed ``run()`` and an
untimed ``check(result, earlier)`` that raises ``checks.CheckFailed`` and
returns a digest of the output for replay comparison.  ``known_fault``
marks an operation whose check fails because of a recorded program fault;
the runner counts such an operation as failed instead of incorrect.

Regenerate the ``cli-files`` inputs with::

    PYTHONPATH=src python3 benchmarks/workloads.py --seed 1 --out .bench_work/cli-inputs
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy.linalg

import checks


class OpFailed(Exception):
    """The operation did not complete (non-zero exit code or an exception)."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Suite workloads: one operation is one theorems.replay_instance(config, i)
# ---------------------------------------------------------------------------


class _GeneratorCapture:
    """Records the inputs and outputs of the generator calls that
    replay_instance makes, by standing in for the names it calls."""

    def __init__(self, fk):
        self.calls: list[tuple] = []
        perturb, theorems = fk.perturb, fk.theorems
        for name in ("generate_perturbed_frame", "generate_perturbed_fusion"):
            setattr(theorems, name, self._recorder(perturb, name))

    def _recorder(self, module, name):
        signature = inspect.signature(getattr(module, name))
        calls = self.calls

        def record(*args, **kwargs):
            # Looked up per call so a tracer wrapping perturb.<name> is used.
            out = getattr(module, name)(*args, **kwargs)
            calls.append((name, signature.bind(*args, **kwargs).arguments, out))
            return out

        return record


class SuiteOp:
    known_fault = False

    def __init__(self, fk, capture, config, index):
        self.fk, self.capture, self.config, self.index = fk, capture, config, index
        self.key = (config.dim_range, config.count_range, config.mu_fraction_range, config.seed, index)

    def run(self):
        self.capture.calls.clear()
        return self.fk.theorems.replay_instance(self.config, self.index)

    def check(self, verdicts, earlier):
        for name, bound, (out, achieved) in self.capture.calls:
            target = bound["target_mu"]
            if name == "generate_perturbed_frame":
                checks.frame_generation(
                    np.asarray(bound["phi"].vectors), target, bool(bound.get("norm_preserving", False)),
                    np.asarray(out.vectors), achieved,
                )
            else:
                checks.fusion_generation(
                    [(s.basis, w) for s, w in bound["w"].members], target,
                    [(s.basis, w) for s, w in out.members], achieved,
                )
        as_dicts = {tid: v.to_dict() for tid, v in verdicts.items()}
        checks.verdicts_pass(as_dicts)
        return _digest(json.dumps(as_dicts, sort_keys=True))

    def norm_bits_changed(self) -> int:
        """Norm-preserving generations whose output norms are not bit-identical."""
        changed = 0
        for name, bound, (out, _) in self.capture.calls:
            if name == "generate_perturbed_frame" and bound.get("norm_preserving", False):
                norms = [np.linalg.norm(f.vectors, axis=1) for f in (bound["phi"], out)]
                changed += not np.array_equal(*norms)
        return changed


class SuiteDefault:
    """The default SuiteConfig shape; round r replays 50 consecutive
    instances, so a run covers as many distinct instances as fit."""

    ROUND = 50

    def __init__(self, fk, seed, workdir):
        self.fk = fk
        self.config = fk.theorems.SuiteConfig(instances=10**9, seed=seed)
        self.capture = _GeneratorCapture(fk)

    def round_ops(self, r):
        return [SuiteOp(self.fk, self.capture, self.config, i)
                for i in range(r * self.ROUND, (r + 1) * self.ROUND)]


class SuiteN50:
    """Dimension 50 with 50 members, the low end of the 50-150 band.  An
    instance's cost varies by 10-30% with the subspace ranks it draws, so
    a run's figures need many instances of one size: at 50 members one
    takes a few seconds, at 100 several times that.  Round r replays
    instance r alone, with mu fraction 0.3 on even and 0.7 on odd rounds.
    The seed draws the frames, subspaces and perturbations."""

    COUNT = 50
    FRACTIONS = (0.3, 0.7)

    def __init__(self, fk, seed, workdir):
        self.fk = fk
        self.configs = [
            fk.theorems.SuiteConfig(
                instances=10**9, dim_range=(50, 50), count_range=(self.COUNT, self.COUNT),
                mu_fraction_range=(f, f), seed=seed,
            )
            for f in self.FRACTIONS
        ]
        self.capture = _GeneratorCapture(fk)

    def round_ops(self, r):
        return [SuiteOp(self.fk, self.capture, self.configs[r % len(self.configs)], r)]


# ---------------------------------------------------------------------------
# cli-files: one operation is one in-process cli.main(argv)
# ---------------------------------------------------------------------------

# (n, N) of the frame files and (n, members) of the fusion files; the seed
# draws the entries only, so every seed gives the same amount of work.
FRAME_SHAPES = ((30, 100), (40, 200), (50, 300), (45, 150))
FUSION_SHAPES = ((30, 20), (40, 30), (50, 40))
DEPENDENT_SHAPES = ((36, 16), (48, 24))


def _rank_of(i: int) -> int:
    return 1 + (7 * i) % 8


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def _rotated_frame(rng, v):
    """Rotate every vector inside its own sphere by one common angle,
    small enough that the perturbation constant stays below half the
    root of the lower frame bound."""
    g = rng.standard_normal(v.shape)
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    g -= np.sum(g * unit, axis=1, keepdims=True) * unit
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    lower = scipy.linalg.eigvalsh(v.T @ v)[0]
    theta = 2.0 * math.asin(0.25 * math.sqrt(lower) / np.linalg.norm(v))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return math.cos(theta) * v + math.sin(theta) * norms * g


def _rotated_fusion(rng, members):
    """Apply one small Cayley rotation to every subspace, with the angle
    chosen so both fusion perturbation gates hold with room to spare."""
    n = members[0][0].shape[0]
    g = rng.standard_normal((n, n))
    k = (g - g.T) / 2
    k /= np.linalg.norm(k, 2)
    op = sum(w * w * (b @ b.T) for b, w in members)
    unit_op = sum(b @ b.T for b, _ in members)
    wmax = max(w for _, w in members)
    reach = min(math.sqrt(scipy.linalg.eigvalsh(op)[0]) / wmax, math.sqrt(scipy.linalg.eigvalsh(unit_op)[0]))
    t = 0.2 * reach / len(members)
    eye = np.eye(n)
    q = np.linalg.solve(eye - 0.5 * t * k, eye + 0.5 * t * k)
    return [(q @ b, w) for b, w in members]


def write_cli_inputs(fk, seed: int, outdir: Path) -> dict[str, Path]:
    """Write every cli-files input under ``outdir``; returns name -> path.

    Frames and orthonormal fusion frames are written with
    ``framekit.fileio.write_structure``; files whose rows are not an
    orthonormal basis are written as raw JSON, since framekit would
    orthonormalize them.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths: dict[str, Path] = {}

    def structure(name, obj):
        paths[name] = outdir / f"{name}.json"
        fk.fileio.write_structure(paths[name], obj)

    def raw(name, doc):
        paths[name] = outdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2) + "\n")

    for i, (n, count) in enumerate(FRAME_SHAPES):
        v = rng.standard_normal((count, n))
        structure(f"frame{i}", fk.Frame(v))
        if i in (1, 3):
            structure(f"frame{i}-rotated", fk.Frame(_rotated_frame(rng, v)))

    for i, (n, count) in enumerate(FUSION_SHAPES):
        members = [(_orthonormal(rng, n, _rank_of(j)), float(rng.uniform(0.5, 2.0))) for j in range(count)]
        structure(f"fusion{i}", fk.FusionFrame(tuple((fk.Subspace(b), w) for b, w in members)))
        if i in (0, 1):
            moved = _rotated_fusion(rng, members)
            structure(f"fusion{i}-rotated", fk.FusionFrame(tuple((fk.Subspace(b), w) for b, w in moved)))

    # Spanning rows that are scaled and partly linearly dependent.
    for i, (n, count) in enumerate(DEPENDENT_SHAPES):
        subspaces = []
        for j in range(count):
            k = 1 + j % 6
            base = rng.standard_normal((k, n)) * rng.uniform(0.1, 10.0, size=(k, 1))
            extra = rng.standard_normal((1 + j % 3, k)) @ base
            rows = np.vstack([base, extra])[rng.permutation(k + 1 + j % 3)]
            subspaces.append({"weight": float(rng.uniform(0.5, 2.0)), "basis": rows.tolist()})
        raw(f"dependent{i}", {"dim": n, "kind": "fusion", "subspaces": subspaces})

    # Angle pairs: a rank-20 frame of 120 vectors against a 30-vector
    # frame, two single-subspace fusion files, and a 35-vector frame
    # against a smaller subspace (infimum cosine 0).
    span = rng.standard_normal((120, 20)) @ rng.standard_normal((20, 48))
    structure("span-a0", fk.Frame(span))
    structure("span-b0", fk.Frame(rng.standard_normal((30, 48))))
    for name, n, k in (("span-a1", 45, 12), ("span-b1", 45, 20), ("span-b2", 40, 10)):
        structure(name, fk.FusionFrame(((fk.Subspace(_orthonormal(rng, n, k)), 1.0),)))
    structure("span-a2", fk.Frame(rng.standard_normal((35, 40))))

    # Known faults: absolute rank tolerances make these rescaled copies
    # classify differently from the originals.  They do not depend on
    # the seed.
    structure("identity3", fk.Frame(np.eye(3)))
    structure("identity3-1e-6", fk.Frame(1e-6 * np.eye(3)))
    rows = ([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 0.0, 2.0]])
    for name, scale in (("planes3", 1.0), ("planes3-1e-11", 1e-11)):
        raw(name, {"dim": 3, "kind": "fusion", "subspaces": [
            {"weight": 1.0, "basis": [[scale * x for x in row] for row in basis]} for basis in rows
        ]})
    return paths


class CliOp:
    def __init__(self, fk, key, argv, check, known_fault=False):
        self.fk, self.key, self.argv, self._check, self.known_fault = fk, key, argv, check, known_fault

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.fk.cli.main(list(self.argv))
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, stdout, earlier):
        results = json.loads(stdout)["results"]
        earlier[self.key] = results
        self._check(results, earlier)
        return _digest(stdout)


class CliFiles:
    """analyze, verify, angles and frame-only perturb on frame files."""

    def __init__(self, fk, seed, workdir):
        self.fk = fk
        p = write_cli_inputs(fk, seed, Path(workdir) / "inputs")
        doc = {name: checks.read_doc(path) for name, path in p.items()}
        out_dir = Path(workdir) / "outputs"
        out_dir.mkdir(parents=True, exist_ok=True)
        ops = []

        def add(key, argv, check, known_fault=False):
            ops.append(CliOp(fk, key, [*argv, "--format", "json"], check, known_fault))

        def analyze(name, reference=None):
            def check(results, earlier):
                checks.analyze_report(doc[name], results)
                if reference is not None:
                    checks.same_decisions(results, earlier[("analyze", reference)])
            add(("analyze", name), ["analyze", str(p[name])], check, known_fault=reference is not None)

        for name in ("frame0", "frame1", "frame2", "frame3", "fusion0", "fusion1", "fusion2",
                     "dependent0", "dependent1", "identity3", "planes3"):
            analyze(name)
        analyze("identity3-1e-6", reference="identity3")
        analyze("planes3-1e-11", reference="planes3")

        for a, theorem in (("frame1", "perturbed_frame_bounds"), ("frame3", "perturbed_frame_bounds"),
                           ("fusion0", "fusion_perturbed_bounds"), ("fusion1", "fusion_perturbed_bounds")):
            b = f"{a}-rotated"
            add(("verify", a), ["verify", str(p[a]), str(p[b])],
                lambda results, earlier, a=a, b=b, t=theorem: checks.verify_report(doc[a], doc[b], results, t))

        for a, b in (("span-a0", "span-b0"), ("span-a1", "span-b1"), ("span-a2", "span-b2")):
            add(("angles", a), ["angles", str(p[a]), str(p[b])],
                lambda results, earlier, a=a, b=b: checks.angles_report(doc[a], doc[b], results))

        v0 = checks.frame_vectors(doc["frame0"])
        target0 = 0.4 * math.sqrt(scipy.linalg.eigvalsh(v0.T @ v0)[0])
        for src, mu, extra in (("frame2", 0.5, []), ("frame0", target0, ["--norm-preserving"])):
            out = out_dir / f"{src}-perturbed.json"
            add(("perturb", src), ["perturb", str(p[src]), "--mu", repr(mu), "--seed", str(seed), "--out", str(out), *extra],
                lambda results, earlier, src=src, out=out: checks.perturb_report(doc[src], checks.read_doc(out), results))
        self.ops = ops

    def round_ops(self, r):
        return self.ops


WORKLOADS = {"suite-default": SuiteDefault, "suite-n50": SuiteN50, "cli-files": CliFiles}


if __name__ == "__main__":
    import argparse

    import framekit
    import framekit.fileio

    parser = argparse.ArgumentParser(description="Write the cli-files benchmark inputs.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    written = write_cli_inputs(framekit, args.seed, Path(args.out))
    print("\n".join(str(path) for path in written.values()))
