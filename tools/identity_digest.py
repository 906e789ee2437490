"""SHA-256 digests of everything framekit prints or writes, for checking
that a change keeps its output byte-identical.

Run it on the parent tree and on the changed tree, then diff the two:

    python3 tools/identity_digest.py > digests.txt
    python3 tools/identity_digest.py --dump out/   # also keep the raw outputs
    python3 tools/identity_digest.py --verdicts    # hash the decisions only

framekit is imported from the ``src/`` next to this directory.  One
``<sha256>  <label>`` line is printed per item:

- the suite reports of the default config (text and JSON), of
  ``--dim-min 8 --dim-max 12 --count-min 8 --count-max 20 --seed 3`` and
  of 20 instances at n = N = 50 (``--seed 5``), whose fusion draws take
  50 member QRs each, so a change to the bits of the draw's
  factorization shows in its digest;
- per CLI run (``analyze``, ``verify``, ``angles`` and ``perturb``): its
  stdout, stderr, exit code and written file.  The inputs are the
  ``cli-files`` benchmark inputs for seeds 1 and 2
  (``benchmarks/workloads.write_cli_inputs``), small edge files whose
  products overflow or that hold zero vectors.  Two of them hold R^3,
  from a seeded Gaussian spanning set: once beside span{e1} (for
  ``verify``) and once alone (for ``angles``, which takes one subspace).
  A set of its own reaches the rank decisions at a few hundred vectors:
  a seeded frame of 300 vectors of rank 10 in R^50 (``analyze``,
  ``angles``) and a 40-member fusion file in R^50 whose basis rows repeat
  and combine (``analyze``, ``verify``).  Two files of the set hold
  draws whose one vector lies within rounding of the rank cutoff, so a
  change to the rank rule shows in their digests: a frame (draw 8) and a
  one-member fusion file (draw 12) of ``near_cutoff_rows`` (``analyze``,
  ``angles``).  It also holds a seeded equal-norms pair, a normalized
  6-by-3 Gaussian frame times 1.5 and its norm-preserving perturbation,
  scaled by 2^-600 and by 2^600, where the vectors' sums of squares
  underflow or overflow (``analyze``, and ``verify`` of each pair).  And
  it holds a pair with a known small angle: a seeded rank-3 subspace of
  R^8 and its copy with one basis column turned 1e-9 rad off the
  subspace, as one-member fusion files (``analyze``, and ``angles`` in
  both orders), so a change to the angle's precision shows in their
  digests.  The set stays out of the edge set, whose runs take every
  pair of inputs.

Each run is in-process but behaves as a fresh process: warnings are
shown once per run, native output on file descriptors 1 and 2 (such as a
LAPACK message) is captured, and an uncaught exception gives exit 1 with
its last traceback line.  Work and source directories are replaced by
``<work>`` and ``<src>``, so trees in different places give equal digests,
and the line number of a warning's source location is dropped (the text
and the quoted source line stay), so code that only moves keeps them.

With ``--verdicts`` each line hashes only the run's decisions: its exit
code and, from JSON output, each suite row's passed, failed and gated
counts, each ``verify`` verdict's ``hypotheses_met`` and
``inequality_pass``, and the boolean flags and ranks of ``analyze``.
Those should not depend on the BLAS kernel, whose choice moves rounding
bits; compare runs under ``OPENBLAS_CORETYPE=Haswell`` (or
``Sandybridge``, ``Prescott``) with the default kernel's.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import framekit  # noqa: E402
import framekit.cli  # noqa: E402
from workloads import write_cli_inputs  # noqa: E402

SUITES = (
    ("suite-default-text", []),
    ("suite-default-json", ["--format", "json"]),
    ("suite-dim8-json", ["--dim-min", "8", "--dim-max", "12", "--count-min", "8",
                         "--count-max", "20", "--seed", "3", "--format", "json"]),
    ("suite-n50-json", ["--instances", "20", "--dim-min", "50", "--dim-max", "50",
                        "--count-min", "50", "--count-max", "50", "--seed", "5",
                        "--format", "json"]),
)
PERTURB_MUS = ("0.05", "0.5", "3", "1e-300", "1e150", "1e160", "1e308")
EDGE_FRAMES = {
    "identity2": [[1.0, 0.0], [0.0, 1.0]],
    "overflow-1e200": [[1e200, 0.0], [0.0, 1.0]],
    "near-1e154": [[1.2e154, 0.0], [0.0, 1.0]],
    "signs-1e154": [[1e154, 1e154], [1e154, -1e154]],
    "norm-inf": [[1e154, 1e154], [0.0, 1.0]],
    "max-plus": [[1e308, 0.0], [0.0, 1.0]],
    "max-minus": [[-1e308, 0.0], [0.0, 1.0]],
    "tiny-1e-200": [[1e-200, 0.0], [0.0, 1e-200], [1e-200, 1e-200]],
    "subnormal": [[1e-310, 0.0], [0.0, 1e-310]],
    "zero-vector": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "all-zero": [[0.0, 0.0], [0.0, 0.0]],
}
# Powers of two by which the wide set scales its equal-norms pair.
EQUAL_NORMS_SCALES = (-600, 600)
# The angle by which the wide set turns one basis column of its
# small-angle pair off the subspace.
SMALL_ANGLE = 1e-9
EDGE_WEIGHTS = {
    "weight-1e200": (1e200, 1.0),
    "weight-1e154": (1e154, 1e154),
    "weight-1e308": (1e308, 1e308),
    "weight-1e-200": (1e-200, 1.0),
    "weight-1": (1.0, 1.0),
}


def write_edge_inputs(outdir: Path) -> dict[str, Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    docs = {name: {"dim": 2, "kind": "frame", "vectors": v} for name, v in EDGE_FRAMES.items()}
    for name, (a, b) in EDGE_WEIGHTS.items():
        docs[name] = {"dim": 2, "kind": "fusion", "subspaces": [
            {"weight": a, "basis": [[1.0, 0.0]]},
            {"weight": b, "basis": [[0.6, 0.8]]},
        ]}
    full = {"weight": 1.0, "basis": np.random.default_rng(45).standard_normal((3, 3)).tolist()}
    docs["full-space-3"] = {"dim": 3, "kind": "fusion", "subspaces": [
        full, {"weight": 1.0, "basis": [[1.0, 0.0, 0.0]]},
    ]}
    docs["full-space-3-alone"] = {"dim": 3, "kind": "fusion", "subspaces": [full]}
    paths = {}
    for name, doc in docs.items():
        paths[name] = outdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc) + "\n")
    return paths


def near_cutoff_rows(seed: int) -> np.ndarray:
    """One draw of the near-cutoff family: ``a q1``, ``b a q1`` (a drop),
    ``c q1 + 1e-10 M (1 + u) q2`` and ``q3, ..., qn``, for the columns of a
    random orthogonal n-by-n matrix, n in [3, 8], ``M = max(|a|, |b a|,
    |c|)`` and u uniform in +-2e-6: the third vector's residual lies within
    rounding of the rank cutoff."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a, b, c = rng.standard_normal(3)
    m = max(abs(a), abs(b * a), abs(c))
    near = c * q[:, 0] + 1e-10 * m * (1 + rng.uniform(-2e-6, 2e-6)) * q[:, 1]
    return np.vstack([a * q[:, 0], b * a * q[:, 0], near, q[:, 2:].T])


def write_wide_inputs(outdir: Path) -> dict[str, Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    # Draw 8 keeps the near vector in the one decision pass, though the
    # QR of the kept columns finds its |R_jj| short; draw 12 drops it in
    # the pass, though one QR per dropped vector keeps it.
    near_keep, near_drop = near_cutoff_rows(8), near_cutoff_rows(12)
    rng = np.random.default_rng(19)
    frame = rng.standard_normal((300, 10)) @ rng.standard_normal((10, 50))
    subspaces = []
    for i in range(40):
        k = 1 + i % 12
        base = rng.standard_normal((k, 50)) * rng.uniform(0.1, 10.0, size=(k, 1))
        rows = np.vstack([base, base[: 1 + i % 3], rng.standard_normal((1 + i % 4, k)) @ base])
        subspaces.append({"weight": float(rng.uniform(0.5, 2.0)),
                          "basis": rows[rng.permutation(len(rows))].tolist()})
    eq_rng = np.random.default_rng(23)
    phi = framekit.Frame(1.5 * framekit.Frame(eq_rng.standard_normal((6, 3))).unit_columns.T)
    psi, _ = framekit.generate_perturbed_frame(phi, 0.3, seed=24, norm_preserving=True)
    q = np.linalg.qr(np.random.default_rng(25).standard_normal((8, 8)))[0]
    turned = q[:, :3].copy()
    turned[:, 2] = np.cos(SMALL_ANGLE) * q[:, 2] + np.sin(SMALL_ANGLE) * q[:, 3]
    docs = {
        f"equal-norms-2^{k}-{name}": {"dim": 3, "kind": "frame",
                                      "vectors": np.ldexp(f.vectors, k).tolist()}
        for k in EQUAL_NORMS_SCALES for name, f in (("phi", phi), ("psi", psi))
    }
    docs |= {
        "frame-300-rank-10": {"dim": 50, "kind": "frame", "vectors": frame.tolist()},
        "fusion-40-repeated": {"dim": 50, "kind": "fusion", "subspaces": subspaces},
        "near-cutoff-frame": {"dim": near_keep.shape[1], "kind": "frame",
                              "vectors": near_keep.tolist()},
        "near-cutoff-fusion": {"dim": near_drop.shape[1], "kind": "fusion",
                               "subspaces": [{"weight": 1.0, "basis": near_drop.tolist()}]},
    }
    docs |= {
        f"small-angle-{name}": {"dim": 8, "kind": "fusion",
                                "subspaces": [{"weight": 1.0, "basis": basis.T.tolist()}]}
        for name, basis in (("v", q[:, :3]), ("w", turned))
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = outdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc) + "\n")
    return paths


def wide_runs(files: dict[str, Path]):
    """``(label, argv, out_file)`` of the runs on the wide input set."""
    for name in sorted(files):
        for fmt in ("text", "json"):
            yield f"wide/analyze/{name}/{fmt}", ["analyze", str(files[name]), "--format", fmt], None
    frame, fusion = str(files["frame-300-rank-10"]), str(files["fusion-40-repeated"])
    yield "wide/angles/frame-300-rank-10", ["angles", frame, frame, "--format", "json"], None
    yield "wide/verify/fusion-40-repeated", ["verify", fusion, fusion, "--format", "json"], None
    for name in ("near-cutoff-frame", "near-cutoff-fusion"):
        yield f"wide/angles/{name}", ["angles", str(files[name]), str(files[name]), "--format", "json"], None
    for k in EQUAL_NORMS_SCALES:
        pair = [str(files[f"equal-norms-2^{k}-{name}"]) for name in ("phi", "psi")]
        yield f"wide/verify/equal-norms-2^{k}", ["verify", *pair, "--format", "json"], None
    for a, b in (("v", "w"), ("w", "v")):
        pair = [str(files[f"small-angle-{name}"]) for name in (a, b)]
        yield f"wide/angles/small-angle-{a}/{b}", ["angles", *pair, "--format", "json"], None


class Runner:
    """Runs ``framekit.cli.main`` as if in a fresh process per call."""

    def __init__(self, work: Path, native):
        self.native = native
        self.subs = [(str(work), "<work>"), (str(ROOT / "src"), "<src>")]
        self.libc = ctypes.CDLL(None)

    def _clean(self, text: str) -> str:
        for old, new in self.subs:
            text = text.replace(old, new)
        return re.sub(r"(<src>/\S+?\.py):\d+:", r"\1:", text)

    def __call__(self, argv, out_file: Path | None = None) -> bytes:
        if out_file is not None and out_file.exists():
            out_file.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        start = self.native.seek(0, os.SEEK_END)
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = framekit.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught exception ends a process with exit 1
                traceback.print_exception(*sys.exc_info(), limit=0)
                code = 1
        self.libc.fflush(None)
        self.native.seek(start)
        native = self.native.read().decode(errors="replace")
        written = out_file.read_bytes() if out_file is not None and out_file.exists() else b""
        return json.dumps({
            "argv": self._clean(" ".join(argv)),
            "exit": code,
            "stdout": self._clean(stdout.getvalue()),
            "stderr": self._clean(stderr.getvalue()),
            "native": self._clean(native),
            "written": self._clean(written.decode()),
        }, indent=1).encode()


def decisions(argv, blob: bytes) -> bytes:
    """The decisions of one run, as ``--verdicts`` hashes them."""
    record = json.loads(blob)
    kept = {"exit": record["exit"]}
    try:
        results = json.loads(record["stdout"])["results"]
    except ValueError:  # text output, or an error message
        return json.dumps(kept).encode()
    if argv[0] == "suite":
        kept["rows"] = {tid: [t["passed"], t["failed"], t["gated"]]
                        for tid, t in results["tallies"].items()}
    elif argv[0] == "verify":
        kept["verdicts"] = [[v["theorem_id"], v["hypotheses_met"], v["inequality_pass"]]
                            for v in results["verdicts"]]
    elif argv[0] == "analyze":
        kept["flags"] = flags = {}

        def walk(node, path):
            for key, value in node.items():
                if isinstance(value, dict):
                    walk(value, f"{path}{key}.")
                elif isinstance(value, bool) or key == "ranks":
                    flags[path + key] = value

        walk(results, "")
    return json.dumps(kept).encode()


def cli_runs(files: dict[str, Path], prefix: str, out: Path):
    """``(label, argv, out_file)`` of every CLI run on one input set."""
    names = sorted(files)
    for name in names:
        for fmt in ("text", "json"):
            yield f"{prefix}/analyze/{name}/{fmt}", ["analyze", str(files[name]), "--format", fmt], None
    for a, b in itertools.product(names, repeat=2):
        yield f"{prefix}/verify/{a}/{b}", ["verify", str(files[a]), str(files[b]), "--format", "json"], None
        yield f"{prefix}/angles/{a}/{b}", ["angles", str(files[a]), str(files[b]), "--format", "json"], None
    for name in names:
        for mu, extra in itertools.product(PERTURB_MUS, ([], ["--norm-preserving"])):
            label = f"{prefix}/perturb/{name}/{mu}{''.join(extra)}"
            argv = ["perturb", str(files[name]), "--mu", mu, "--seed", "7", "--out", str(out), *extra]
            yield label, argv, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write each raw output, one numbered file per digest line")
    parser.add_argument("--verdicts", action="store_true",
                        help="hash only each run's exit code and decisions")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile() as native:
        # Native output of the runs lands in ``native``; the digests go to
        # a duplicate of the original standard output.
        report = os.fdopen(os.dup(1), "w")
        sys.stdout.flush()
        saved = [os.dup(1), os.dup(2)]
        os.dup2(native.fileno(), 1)
        os.dup2(native.fileno(), 2)
        try:
            work = Path(tmp)
            run = Runner(work, native)
            jobs = [(label, ["suite", *argv], None) for label, argv in SUITES]
            for seed in (1, 2):
                files = write_cli_inputs(framekit, seed, work / f"seed{seed}")
                jobs.extend(cli_runs(files, f"seed{seed}", work / "out.json"))
            jobs.extend(cli_runs(write_edge_inputs(work / "edge"), "edge", work / "out.json"))
            jobs.extend(wide_runs(write_wide_inputs(work / "wide")))
            if args.dump is not None:
                args.dump.mkdir(parents=True, exist_ok=True)
            for i, (label, argv, out_file) in enumerate(jobs):
                blob = run(argv, out_file)
                if args.verdicts:
                    blob = decisions(argv, blob)
                if args.dump is not None:
                    (args.dump / f"{i:05d}.json").write_bytes(blob)
                print(f"{hashlib.sha256(blob).hexdigest()}  {label}", file=report, flush=True)
        finally:
            for fd, original in zip((1, 2), saved):
                os.dup2(original, fd)
                os.close(original)
            report.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
