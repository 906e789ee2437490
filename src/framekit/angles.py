"""Infimum/supremum cosine angles, the subspace angle, and the gap.

The ranks decide every extreme they can, with no SVD: where
dim V > dim W, V has a unit vector orthogonal to W, so the infimum cosine
is 0 and the gap 1 (the kernel rule); where dim V + dim W > n, V and W
share a unit vector, so the supremum cosine is 1 (the meet rule); where
dim W = n, P_W = I, so both cosines are 1 and the gap 0 (the full rule).
Elsewhere the cosines come from one SVD of W^T V and the gap, the sine of
the largest angle, from one SVD of (I - P_W) V, so theta = arctan2(gap, r)
keeps its digits at every angle (Bjorck & Golub, Math. Comp. 27 (1973)).
Identities linking two routes compare squares, which hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError
from .frames import _pair_memo, _Record
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
    sv = linalg._svdvals(wbasis.T @ vbasis)
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
    return min(1.0, float(linalg._svdvals(residual_map)[0]))


def _check_pair(v: Subspace, w: Subspace) -> None:
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {v.ambient_dim} vs {w.ambient_dim}"
        )


def orthogonal_complement(s: Subspace) -> np.ndarray:
    """Orthonormal basis of the complement (possibly with zero columns)."""
    return linalg._svd_u(s.basis)[:, s.dim :]


def _cosines(v: Subspace, w: Subspace) -> tuple[float, float]:
    """``_inf_sup_cos`` of the pair's bases, measured once per pair (see
    ``frames._pair_memo``)."""
    return _pair_memo(v, w, "_cosines", lambda v, w: _inf_sup_cos(v.basis, w.basis))


def cosine_angles(v: Subspace, w: Subspace) -> AngleReport:
    """Infimum and supremum cosine of the angle from V to W, the spectral
    gap, and the angle theta = arctan2(gap, r)."""
    _check_pair(v, w)
    r, s = _cosines(v, w)
    gap = _gap(v.basis, w.basis)
    return AngleReport(r=r, s=s, theta=float(np.arctan2(gap, r)), gap=gap)


def check_rs_relation(v: Subspace, w: Subspace) -> float:
    """Residual |r(V, W)^2 + s(V, W^perp)^2 - 1| of the complement
    identity: r and s(V, W^perp) are the cosine and sine of one angle."""
    _check_pair(v, w)
    r = _cosines(v, w)[0]
    s_comp = _inf_sup_cos(v.basis, orthogonal_complement(w))[1]
    return abs(r * r + s_comp * s_comp - 1.0)
