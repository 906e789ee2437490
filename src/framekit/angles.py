"""Infimum/supremum cosine angles, the subspace angle, and the gap.

The angle report derives theta and the gap from the infimum cosine, so
the trigonometric identities hold by construction; only ``gap_direct``
recomputes the gap spectrally, which turns "gap equals the sine of the
angle" into an actual two-route test where dim V <= dim W; above that
both routes take the kernel branch (infimum cosine 0, gap exactly 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .frames import _Record
from .fusion import Subspace


@dataclass(frozen=True)
class AngleReport(_Record):
    """Cosine extremes, angle, and gap between an ordered subspace pair."""

    r: float
    s: float
    theta: float
    gap: float


def _inf_sup_cos(vbasis: np.ndarray, wbasis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme values of ||P_W f|| over unit f in V, from orthonormal bases.

    ``wbasis`` is a stack ``(..., n, k)`` of bases (one SVD), and the
    extremes arrays of its shape.  A zero-column W (the trivial
    subspace) gives zeros.
    """
    shape = wbasis.shape[:-2]
    if wbasis.shape[-1] == 0:
        return np.zeros(shape), np.zeros(shape)
    sv = np.linalg.svd(wbasis.mT @ vbasis, compute_uv=False)
    sup = np.minimum(1.0, sv[..., 0])
    if vbasis.shape[-1] > wbasis.shape[-1]:
        inf = np.zeros(shape)  # the restricted projection has a kernel
    else:
        inf = np.minimum(1.0, np.maximum(0.0, sv[..., -1]))
    return inf, sup


def _gap(vbasis: np.ndarray, wbasis: np.ndarray) -> np.ndarray:
    """Norm of (I - P_W) on V, capped at 1, per W of a stack: one SVD, or
    none where dim V > dim W, as V then has a unit vector orthogonal to W
    and the gap is exactly 1 (the kernel branch)."""
    if vbasis.shape[-1] > wbasis.shape[-1]:
        return np.ones(wbasis.shape[:-2])
    residual_map = vbasis - wbasis @ (wbasis.mT @ vbasis)
    return np.minimum(1.0, np.linalg.svd(residual_map, compute_uv=False)[..., 0])


def _check_pair(v: Subspace, w: Subspace) -> None:
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {v.ambient_dim} vs {w.ambient_dim}"
        )


def orthogonal_complement(s: Subspace) -> np.ndarray:
    """Orthonormal basis of the complement (possibly with zero columns)."""
    u = np.linalg.svd(s.basis, full_matrices=True)[0]
    return u[:, s.dim :]


def cosine_angles(v: Subspace, w: Subspace) -> AngleReport:
    """Infimum and supremum cosine of the angle from V to W, with the
    derived angle and gap."""
    _check_pair(v, w)
    r, s = (float(x[0]) for x in _inf_sup_cos(v.basis, w.basis[None]))
    theta = float(np.arccos(np.clip(r, 0.0, 1.0)))
    gap = float(np.sqrt(max(0.0, 1.0 - r * r)))
    return AngleReport(r=r, s=s, theta=theta, gap=gap)


def gap_direct(v: Subspace, w: Subspace) -> float:
    """Largest distance from a unit vector of V to W: the operator norm of
    (I - P_W) restricted to V, computed spectrally where dim V <= dim W
    and exactly 1 above that."""
    _check_pair(v, w)
    return float(_gap(v.basis, w.basis[None])[0])


def check_rs_relation(v: Subspace, w: Subspace) -> float:
    """Residual of the complement identity linking the infimum cosine to
    the supremum cosine against the orthogonal complement."""
    _check_pair(v, w)
    r = float(_inf_sup_cos(v.basis, w.basis[None])[0][0])
    s_comp = float(_inf_sup_cos(v.basis, orthogonal_complement(w)[None])[1][0])
    return abs(r - float(np.sqrt(max(0.0, 1.0 - s_comp * s_comp))))


def redundancy_angle_sums(subspace_list, wprime: Subspace) -> tuple[float, float]:
    """Sum of squared infimum and supremum cosines from ``wprime`` to each
    listed subspace."""
    sum_r2 = 0.0
    sum_s2 = 0.0
    for sub in subspace_list:
        report = cosine_angles(wprime, sub)
        sum_r2 += report.r * report.r
        sum_s2 += report.s * report.s
    return sum_r2, sum_s2
