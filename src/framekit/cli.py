"""Command-line surface: analyze, perturb, verify, angles, suite.

Every command emits one report document (text by default, JSON with
--format json) carrying the tool version, the invoked command line, input
file digests, structured results, and every seed that fed randomness.
Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse
error, 3 semantic input error, 4 generation failure.  ``verify`` runs
the checks of ``theorems.THEOREMS`` that apply to the input kind; a check
whose hypothesis fails on the pair gives a gated verdict, which counts as
no failure (exit 0 when nothing else fails), never an error exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionError, FramekitError, GenerationError, PreconditionError
from .fileio import FrameFileError, _json_text, file_digest, load_structure, write_structure
from .frames import Frame, is_riesz_basis, optimal_frame_bounds, redundancy_bounds
from .fusion import is_orthonormal_fusion_basis, subspace_from_spanning
from .angles import check_rs_relation, cosine_angles
from .perturb import TARGET_WINDOW, generate_perturbed_frame, generate_perturbed_fusion
from . import linalg, perturb, theorems

class _UsageError(Exception):
    """Invalid argument values caught after argparse (exit 2)."""


# The exit code of each error class ``main`` reports (first match); an
# OSError is a file that cannot be read or written.
_EXIT_CODES = {
    FrameFileError: 2,
    _UsageError: 2,
    OSError: 2,
    FramekitError: 3,
    GenerationError: 4,
}


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_text(obj, indent: int = 0, lines: list[str] | None = None) -> list[str]:
    if lines is None:
        lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render_text(value, indent + 1, lines)
            else:
                rendered = "[]" if isinstance(value, list) else ("{}" if isinstance(value, dict) else _fmt(value))
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(obj, list):
        scalar = all(not isinstance(v, (dict, list)) for v in obj)
        if scalar:
            lines.append(pad + "[" + ", ".join(_fmt(v) for v in obj) + "]")
        else:
            for i, value in enumerate(obj):
                lines.append(f"{pad}- [{i}]")
                _render_text(value, indent + 1, lines)
    else:
        lines.append(pad + _fmt(obj))
    return lines


def _make_report(command: str, inputs: dict[str, str], results: dict, seeds: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in inputs.items()
        },
        "results": results,
        "seeds": seeds,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        print("\n".join(_render_text(report)))


def cmd_analyze(args, command: str) -> int:
    obj = load_structure(args.input)
    if isinstance(obj, Frame):
        results = {
            "kind": "frame",
            "dim": obj.dim,
            "count": obj.count,
            "bounds": optimal_frame_bounds(obj).to_dict(),
            "is_riesz_basis": is_riesz_basis(obj),
            "redundancy": redundancy_bounds(obj).to_dict(),
        }
    else:
        weights = obj.weights
        results = {
            "kind": "fusion",
            "dim": obj.dim,
            "count": obj.count,
            "ranks": list(obj.ranks),
            "bounds": optimal_frame_bounds(obj).to_dict(),
            "uniform_weights": bool(abs(weights - weights[0]).max() <= 1e-12 * weights.max()),
            "orthonormal_fusion_basis": is_orthonormal_fusion_basis(obj),
            "redundancy": redundancy_bounds(obj).to_dict(),
        }
    _emit(_make_report(command, {"input": args.input}, results, {}), args.format)
    return 0


def cmd_perturb(args, command: str) -> int:
    if not args.mu > 0:
        raise _UsageError(f"--mu must be positive, got {args.mu}")
    if math.isinf(args.mu):
        raise _UsageError(f"--mu must be finite, got {args.mu}")
    obj = load_structure(args.input)
    if isinstance(obj, Frame):
        perturbed, achieved = generate_perturbed_frame(
            obj, args.mu, seed=args.seed, norm_preserving=args.norm_preserving
        )
        # The norms sum in memory order, so the C-ordered layout fixes the bits.
        diff = np.subtract(obj.synthesis_columns, perturbed.synthesis_columns, order="C")
        norms = [float(x) for x in linalg._norms(diff, 0)]
    elif args.norm_preserving:
        raise _UsageError("--norm-preserving applies only to frame inputs")
    else:
        perturbed, achieved = generate_perturbed_fusion(obj, args.mu, seed=args.seed)
        blocks = np.split(perturb._projector_differences(obj, perturbed), obj.count, axis=1)
        norms = [linalg._top_singular_value(block) for block in blocks]
    # A generator misses its window only below the rounding floor.
    if not abs(achieved - args.mu) <= TARGET_WINDOW * args.mu:
        raise GenerationError(f"achieved constant {achieved:.6g} lies outside 5% of the target {args.mu:.6g}")
    results = {
        "target_mu": args.mu,
        "achieved_mu": achieved,
        "norm_preserving": bool(args.norm_preserving),
        "per_index_norms": norms,
        "output": str(args.out),
    }
    # The input digest is taken before the output is written: --out may be the input.
    report = _make_report(command, {"input": args.input}, results, {"seed": args.seed})
    write_structure(args.out, perturbed)
    _emit(report, args.format)
    return 0


def cmd_verify(args, command: str) -> int:
    a = load_structure(args.original)
    b = load_structure(args.perturbed)
    if type(a) is not type(b):
        raise DimensionError("original and perturbed files have different kinds")
    rows = [t for t in theorems.THEOREMS if isinstance(a, t.kind)]
    if args.theorem != "all":
        rows = [t for t in rows if t.id == args.theorem]
        if not rows:
            raise DimensionError(
                f'theorem "{args.theorem}" does not apply to kind '
                f'"{ "frame" if isinstance(a, Frame) else "fusion" }"'
            )
    verdicts = [t.run(a, b) for t in rows]
    failures = sum(1 for v in verdicts if v.hypotheses_met and not v.inequality_pass)
    results = {
        "verdicts": [v.to_dict() for v in verdicts],
        "stated_equality_residuals": {v.theorem_id: dict(v.equality_residuals) for v in verdicts},
        "inequality_failures": failures,
    }
    inputs = {"original": args.original, "perturbed": args.perturbed}
    _emit(_make_report(command, inputs, results, {}), args.format)
    return 1 if failures else 0


def _as_single_subspace(obj, which: str):
    if isinstance(obj, Frame):
        return subspace_from_spanning(obj.vectors)
    if obj.count != 1:
        raise DimensionError(
            f"{which} fusion file must hold exactly one subspace, got {obj.count}"
        )
    return obj.subspaces[0]


def cmd_angles(args, command: str) -> int:
    v = _as_single_subspace(load_structure(args.input_a), "first")
    w = _as_single_subspace(load_structure(args.input_b), "second")
    report = cosine_angles(v, w)
    results = {
        "dim_v": v.dim,
        "dim_w": w.dim,
        "angles": report.to_dict(),
        "rs_relation_residual": check_rs_relation(v, w),
        "gap_link_residual": abs(report.r * report.r + report.gap * report.gap - 1.0),
    }
    inputs = {"input_a": args.input_a, "input_b": args.input_b}
    _emit(_make_report(command, inputs, results, {}), args.format)
    return 0


def _suite_config(args) -> theorems.SuiteConfig:
    if args.config is None:
        kwargs = {
            "instances": args.instances,
            "dim_range": (args.dim_min, args.dim_max),
            "count_range": (args.count_min, args.count_max),
            "mu_fraction_range": (args.mu_frac_min, args.mu_frac_max),
            "seed": args.seed,
        }
    else:
        try:
            kwargs = json.loads(Path(args.config).read_text())
        except (ValueError, RecursionError) as exc:
            # ValueError covers undecodable bytes and overlong integer
            # literals as well as malformed JSON.
            raise _UsageError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(kwargs, dict):
            raise _UsageError("config must be a JSON object")
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(theorems.SuiteConfig)}
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    try:
        return theorems.SuiteConfig(**kwargs)
    except PreconditionError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_suite(args, command: str) -> int:
    config = _suite_config(args)
    suite = theorems.run_random_suite(config)
    inputs = {} if args.config is None else {"config": args.config}
    report = _make_report(command, inputs, suite.to_dict(), {"seed": config.seed})
    _emit(report, args.format)
    return 1 if suite.total_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Frame and fusion-frame analysis, perturbation, and theorem checks.",
    )
    parser.add_argument("--version", action="version", version=f"framekit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="bounds, classification, and redundancy of one file")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("perturb", help="write a perturbed copy with a target constant")
    p.add_argument("input")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--norm-preserving", action="store_true")
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify", help="run theorem checks on an original/perturbed pair")
    p.add_argument("original")
    p.add_argument("perturbed")
    p.add_argument("--theorem", choices=("all", *theorems.THEOREM_IDS), default="all")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("angles", help="angles between the spans of two files")
    p.add_argument("input_a")
    p.add_argument("input_b")
    add_format(p)
    p.set_defaults(func=cmd_angles)

    defaults = theorems.SuiteConfig()
    p = sub.add_parser("suite", help="randomized verification suite")
    p.add_argument("--config", default=None, help="JSON file with suite parameters")
    p.add_argument("--instances", type=int, default=defaults.instances)
    p.add_argument("--dim-min", type=int, default=defaults.dim_range[0])
    p.add_argument("--dim-max", type=int, default=defaults.dim_range[1])
    p.add_argument("--count-min", type=int, default=defaults.count_range[0])
    p.add_argument("--count-max", type=int, default=defaults.count_range[1])
    p.add_argument("--mu-frac-min", type=float, default=defaults.mu_fraction_range[0])
    p.add_argument("--mu-frac-max", type=float, default=defaults.mu_fraction_range[1])
    p.add_argument("--seed", type=int, default=defaults.seed)
    add_format(p)
    p.set_defaults(func=cmd_suite)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built once, since parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    command = "framekit " + " ".join(argv)
    try:
        return args.func(args, command)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
