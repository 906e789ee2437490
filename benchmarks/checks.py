"""Correctness checks computed apart from framekit.

Every reference here comes from numpy/scipy applied to raw arrays (the
frame files are parsed with ``json``, generator inputs and outputs are
read as plain arrays), never from a framekit routine.  Each check raises
``CheckFailed``; ``selfcheck.py`` feeds each one a corrupted value to show
that it can fail.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

# Relative agreement demanded between a framekit constant and its reference.
REL_TOL = 1e-9
# The generators' documented window around the target constant.
TARGET_WINDOW = 0.05
# Orthonormality defect admitted in a generated basis (framekit's BASIS_TOL).
BASIS_TOL = 1e-10
# Relative change admitted in the norms of a norm-preserving rotation: the
# 1e-9 equal-norms gate of the verifiers that consume these frames.  The
# generator's docstring promises bit-for-bit norms, but its rotation moves
# them (1.6e-12 relative seen); run.py counts those outputs instead.
NORM_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A framekit output disagrees with its independent reference."""


def _close(label: str, got: float, want: float, scale: float | None = None, rtol: float = REL_TOL) -> None:
    scale = abs(want) if scale is None else scale
    if not abs(got - want) <= rtol * scale + 1e-300:
        raise CheckFailed(f"{label}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# Generator calls captured inside replay_instance
# ---------------------------------------------------------------------------


def frame_generation(phi: np.ndarray, target: float, norm_preserving: bool,
                     psi: np.ndarray, achieved: float) -> None:
    """``phi``/``psi`` are (N, n) vector arrays of input and output."""
    if psi.shape != phi.shape:
        raise CheckFailed(f"frame generator changed shape {phi.shape} -> {psi.shape}")
    ref = float(scipy.linalg.svdvals(phi - psi)[0])
    _close("frame constant vs svdvals(phi - psi)[0]", achieved, ref)
    if norm_preserving:
        if not achieved <= (1.0 + TARGET_WINDOW) * target:
            raise CheckFailed(f"norm-preserving constant {achieved!r} above 1.05 * {target!r}")
        n_phi = np.linalg.norm(phi, axis=1)
        n_psi = np.linalg.norm(psi, axis=1)
        slack = NORM_RTOL * n_phi
        if not np.all(np.abs(n_psi - n_phi) <= slack):
            i = int(np.argmax(np.abs(n_psi - n_phi) - slack))
            raise CheckFailed(f"norm of vector {i} moved from {n_phi[i]!r} to {n_psi[i]!r}")
    elif not abs(achieved - target) <= TARGET_WINDOW * target:
        raise CheckFailed(f"frame constant {achieved!r} outside 5% of target {target!r}")


def fusion_constant(w_members, v_members) -> float:
    """sqrt(lambda_max(sum D_i^2)) with D_i = w_i P_i - v_i Q_i symmetric.

    ``*_members`` are sequences of (basis, weight) with orthonormal n-by-k
    bases.  This never forms the n-by-Nn concatenation framekit measures.
    """
    n = w_members[0][0].shape[0]
    acc = np.zeros((n, n))
    for (b, wb), (c, wc) in zip(w_members, v_members):
        d = wb * (b @ b.T) - wc * (c @ c.T)
        acc += d @ d
    return math.sqrt(max(0.0, float(scipy.linalg.eigvalsh(acc)[-1])))


def fusion_generation(w_members, target: float, v_members, achieved: float) -> None:
    if len(v_members) != len(w_members):
        raise CheckFailed(f"fusion generator changed member count {len(w_members)} -> {len(v_members)}")
    for i, ((b, wb), (c, wc)) in enumerate(zip(w_members, v_members)):
        if c.shape != b.shape:
            raise CheckFailed(f"member {i}: basis shape {b.shape} -> {c.shape}")
        if wc != wb:
            raise CheckFailed(f"member {i}: weight {wb!r} -> {wc!r}")
        defect = float(np.max(np.abs(c.T @ c - np.eye(c.shape[1]))))
        if not defect <= BASIS_TOL:
            raise CheckFailed(f"member {i}: generated basis not orthonormal (defect {defect:.3e})")
    _close("fusion constant vs sqrt(lambda_max(sum D_i^2))", achieved, fusion_constant(w_members, v_members))
    if not abs(achieved - target) <= TARGET_WINDOW * target:
        raise CheckFailed(f"fusion constant {achieved!r} outside 5% of target {target!r}")


def verdicts_pass(verdicts: dict) -> None:
    """``verdicts`` maps theorem id to a verdict dict."""
    for tid, v in verdicts.items():
        if v["hypotheses_met"] and not v["inequality_pass"]:
            raise CheckFailed(f"{tid}: hypotheses met but inequality failed (margin {v['margin']!r})")


def same_output(first: str, again: str) -> None:
    """Digests of two runs of one operation (verdicts or CLI stdout)."""
    if first != again:
        raise CheckFailed("replaying the operation gave a different output")


# ---------------------------------------------------------------------------
# CLI reports against the frame files they read
# ---------------------------------------------------------------------------


def read_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def frame_vectors(doc: dict) -> np.ndarray:
    return np.array(doc["vectors"], dtype=float)


def fusion_members(doc: dict):
    """(orthonormal basis, weight, rank) per member, ranks decided by SVD."""
    out = []
    for entry in doc["subspaces"]:
        basis = scipy.linalg.orth(np.array(entry["basis"], dtype=float).T)
        out.append((basis, float(entry["weight"]), basis.shape[1]))
    return out


def span_basis(doc: dict) -> np.ndarray:
    """Orthonormal basis of the span a file stands for in ``angles``."""
    if doc["kind"] == "frame":
        return scipy.linalg.orth(frame_vectors(doc).T)
    (basis, _, _), = fusion_members(doc)
    return basis


def _bounds(label: str, reported: dict, eigs: np.ndarray) -> None:
    top = float(eigs[-1])
    _close(f"{label} upper", reported["upper"], max(0.0, top), scale=top)
    _close(f"{label} lower", reported["lower"], max(0.0, float(eigs[0])), scale=top)


def analyze_report(doc: dict, results: dict) -> None:
    """Bounds and redundancy against eigvalsh; framehood and ranks against
    scale-invariant SVD rank decisions."""
    n = doc["dim"]
    if doc["kind"] == "frame":
        v = frame_vectors(doc)
        _bounds("frame bounds", results["bounds"], scipy.linalg.eigvalsh(v.T @ v))
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        _bounds("redundancy", results["redundancy"], scipy.linalg.eigvalsh(unit.T @ unit))
        _close("redundancy mean", results["redundancy"]["mean"], len(v) / n)
        full_rank = np.linalg.matrix_rank(v) == n
        if results["bounds"]["is_frame"] != full_rank:
            raise CheckFailed(f"is_frame {results['bounds']['is_frame']} but rank test says {full_rank}")
        riesz = bool(full_rank and len(v) == n)
        if results["is_riesz_basis"] != riesz:
            raise CheckFailed(f"is_riesz_basis {results['is_riesz_basis']} but reference says {riesz}")
        return
    members = fusion_members(doc)
    ranks = [k for _, _, k in members]
    if results["ranks"] != ranks:
        raise CheckFailed(f"ranks {results['ranks']} but SVD ranks are {ranks}")
    op = sum(w * w * (b @ b.T) for b, w, _ in members)
    _bounds("fusion bounds", results["bounds"], scipy.linalg.eigvalsh(op))
    unit_op = sum(b @ b.T for b, _, _ in members)
    _bounds("fusion redundancy", results["redundancy"], scipy.linalg.eigvalsh(unit_op))
    full_rank = np.linalg.matrix_rank(op, hermitian=True) == n
    if results["bounds"]["is_frame"] != full_rank:
        raise CheckFailed(f"is_frame {results['bounds']['is_frame']} but rank test says {full_rank}")


def same_decisions(scaled: dict, unscaled: dict) -> None:
    """A rescaled copy must be classified like the original."""
    if scaled["bounds"]["is_frame"] != unscaled["bounds"]["is_frame"]:
        raise CheckFailed("is_frame changed under rescaling")
    if scaled.get("ranks") != unscaled.get("ranks"):
        raise CheckFailed(f"ranks changed under rescaling: {scaled.get('ranks')} vs {unscaled.get('ranks')}")


def verify_report(doc_a: dict, doc_b: dict, results: dict, gated_theorem: str) -> None:
    """Every met hypothesis passes, the inputs were built so that
    ``gated_theorem``'s gate holds, and its constant matches the reference."""
    verdicts = {v["theorem_id"]: v for v in results["verdicts"]}
    verdicts_pass(verdicts)
    v = verdicts[gated_theorem]
    if not v["hypotheses_met"]:
        raise CheckFailed(f"{gated_theorem} gated on inputs built to meet its hypotheses: {v['notes']}")
    if doc_a["kind"] == "frame":
        ref = float(scipy.linalg.svdvals(frame_vectors(doc_a) - frame_vectors(doc_b))[0])
    else:
        ref = fusion_constant(
            [(b, w) for b, w, _ in fusion_members(doc_a)],
            [(b, w) for b, w, _ in fusion_members(doc_b)],
        )
    _close(f"{gated_theorem} constant", v["predicted"]["mu"], ref)


def angles_report(doc_a: dict, doc_b: dict, results: dict) -> None:
    """r and s against the principal angles of scipy.linalg.subspace_angles."""
    va, wb = span_basis(doc_a), span_basis(doc_b)
    if (results["dim_v"], results["dim_w"]) != (va.shape[1], wb.shape[1]):
        raise CheckFailed(f"dims {results['dim_v']}, {results['dim_w']} but SVD ranks {va.shape[1]}, {wb.shape[1]}")
    cos = np.cos(scipy.linalg.subspace_angles(va, wb))
    s_ref = float(cos.max())
    r_ref = 0.0 if va.shape[1] > wb.shape[1] else float(cos.min())
    _close("angles s", results["angles"]["s"], s_ref, scale=1.0)
    _close("angles r", results["angles"]["r"], r_ref, scale=1.0)


def perturb_report(doc_in: dict, doc_out: dict, results: dict) -> None:
    phi, psi = frame_vectors(doc_in), frame_vectors(doc_out)
    frame_generation(phi, results["target_mu"], results["norm_preserving"], psi, results["achieved_mu"])
