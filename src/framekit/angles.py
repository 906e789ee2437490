"""Infimum/supremum cosine angles, the subspace angle, and the gap.

The ranks decide every extreme they can, with no SVD: where
dim V > dim W, V has a unit vector orthogonal to W, so the infimum cosine
is 0 and the gap 1 (the kernel rule); where dim V + dim W > n, V and W
share a unit vector, so the supremum cosine is 1 (the meet rule); where
dim W = n, P_W = I, so both cosines are 1 and the gap 0 (the full rule).
The angle report derives theta and the gap from the infimum cosine, so
the trigonometric identities hold by construction; only ``gap_direct``
recomputes the gap spectrally, which turns "gap equals the sine of the
angle" into an actual two-route test where dim V <= dim W < n.
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


def _inf_sup_cos(vbasis: np.ndarray, wbasis: np.ndarray) -> tuple[float, float]:
    """Extreme values of ||P_W f|| over unit f in V, from orthonormal bases:
    where the full, kernel and meet rules decide them, by dimension count,
    else from one SVD of ``W^T V``.  A zero-column W (the trivial subspace)
    gives zeros."""
    (n, p), k = vbasis.shape, wbasis.shape[1]
    if k == 0:
        return 0.0, 0.0
    if k == n:
        return 1.0, 1.0
    kernel, meet = p > k, p + k > n
    if kernel and meet:
        return 0.0, 1.0
    sv = np.linalg.svd(wbasis.T @ vbasis, compute_uv=False)
    inf = 0.0 if kernel else min(1.0, max(0.0, float(sv[-1])))
    sup = 1.0 if meet else min(1.0, float(sv[0]))
    return inf, sup


def _gap(vbasis: np.ndarray, wbasis: np.ndarray) -> float:
    """Norm of (I - P_W) on V, capped at 1: exactly 1 by the kernel rule
    where dim V > dim W, exactly 0 by the full rule where dim W = n, else
    from one SVD."""
    (n, p), k = vbasis.shape, wbasis.shape[1]
    if p > k:
        return 1.0
    if k == n:
        return 0.0
    residual_map = vbasis - wbasis @ (wbasis.T @ vbasis)
    return min(1.0, float(np.linalg.svd(residual_map, compute_uv=False)[0]))


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
    r, s = _inf_sup_cos(v.basis, w.basis)
    theta = float(np.arccos(np.clip(r, 0.0, 1.0)))
    gap = float(np.sqrt(max(0.0, 1.0 - r * r)))
    return AngleReport(r=r, s=s, theta=theta, gap=gap)


def gap_direct(v: Subspace, w: Subspace) -> float:
    """Largest distance from a unit vector of V to W: the operator norm of
    (I - P_W) restricted to V, computed spectrally where dim V <= dim W < n,
    exactly 1 where dim V > dim W and exactly 0 where W is R^n."""
    _check_pair(v, w)
    return _gap(v.basis, w.basis)


def check_rs_relation(v: Subspace, w: Subspace) -> float:
    """Residual of the complement identity linking the infimum cosine to
    the supremum cosine against the orthogonal complement."""
    _check_pair(v, w)
    r = _inf_sup_cos(v.basis, w.basis)[0]
    s_comp = _inf_sup_cos(v.basis, orthogonal_complement(w))[1]
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
