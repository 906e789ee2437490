"""Fusion frames: weighted subspaces, projections, bounds, redundancy.

Subspaces are stored as orthonormal bases (rank explicit, projector
invariants checkable); orthogonal projectors are derived on demand.
Fusion redundancy sums bare projections and ignores the weights, so the
profile is computed from the unit-weight projector sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError
from .frames import (
    BoundsReport,
    RedundancyProfile,
    UNIT_NORM_TOL,
    _sphere_extremes,
    bounds_from_extremes,
    profile_from_extremes,
)

# Orthonormality defect admitted in a stored basis.
BASIS_TOL = 1e-10
# Relative tolerance for "this part lies in its subspace".
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^n held as an n-by-k orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = linalg.as_matrix(self.basis)
        n, k = b.shape
        if k < 1 or k > n:
            raise DimensionError(f"subspace dimension {k} must lie in [1, {n}]")
        defect = np.max(np.abs(b.T @ b - np.eye(k)))
        if defect > BASIS_TOL:
            raise PreconditionError(
                f"basis columns are not orthonormal (defect {defect:.3e})"
            )
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class FusionFrame:
    """Ordered list of (subspace, positive weight) pairs in a common R^n."""

    members: tuple[tuple[Subspace, float], ...]

    def __post_init__(self):
        members = tuple((s, float(w)) for s, w in self.members)
        if not members:
            raise DimensionError("a fusion frame needs at least one subspace")
        n = members[0][0].ambient_dim
        for i, (s, w) in enumerate(members):
            if s.ambient_dim != n:
                raise DimensionError(
                    f"member {i} lives in R^{s.ambient_dim}, expected R^{n}"
                )
            if not w > 0:
                raise PreconditionError(f"weight {i} must be positive, got {w}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0][0].ambient_dim

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def subspaces(self) -> tuple[Subspace, ...]:
        return tuple(s for s, _ in self.members)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.members])

    def with_unit_weights(self) -> "FusionFrame":
        return FusionFrame(tuple((s, 1.0) for s, _ in self.members))


def subspace_from_spanning(vectors, tol: float = linalg.RANK_TOL) -> Subspace:
    """Subspace spanned by arbitrary vectors; rank is decided at ``tol``."""
    basis, rank = linalg.orthonormalize(vectors, tol=tol)
    if rank == 0:
        raise DegenerateInputError("spanning set contains no vector above tolerance")
    return Subspace(basis)


def full_space(n: int) -> Subspace:
    """The whole ambient space as a subspace."""
    return Subspace(np.eye(n))


def vector_span(vec) -> Subspace:
    """One-dimensional span of a nonzero vector."""
    v = linalg.as_vector(vec)
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        raise DegenerateInputError("cannot span a zero vector")
    return Subspace((v / norm)[:, None])


def projection_matrix(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (basis times its transpose)."""
    return s.basis @ s.basis.T


def fusion_frame_operator(ff: FusionFrame) -> np.ndarray:
    """Weighted projector sum: sum of w_i^2 P_i."""
    n = ff.dim
    op = np.zeros((n, n))
    for s, w in ff.members:
        op += (w * w) * projection_matrix(s)
    return op


def fusion_frame_bounds(ff: FusionFrame, rank_tol: float = linalg.RANK_TOL) -> BoundsReport:
    """Optimal fusion bounds: extreme eigenvalues of the fusion frame operator."""
    eigs = linalg.hermitian_eigenvalues(fusion_frame_operator(ff))
    return bounds_from_extremes(eigs[0], eigs[-1], rank_tol)


def fusion_synthesis_apply(ff: FusionFrame, parts) -> np.ndarray:
    """Weighted sum of parts, each required to lie in its own subspace."""
    if len(parts) != ff.count:
        raise DimensionError(f"expected {ff.count} parts, got {len(parts)}")
    out = np.zeros(ff.dim)
    for i, ((s, w), p) in enumerate(zip(ff.members, parts)):
        p = linalg.as_vector(p, ff.dim)
        resid = p - s.basis @ (s.basis.T @ p)
        if np.linalg.norm(resid) > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(p)):
            raise PreconditionError(
                f"part {i} does not lie in its subspace "
                f"(residual {np.linalg.norm(resid):.3e})"
            )
        out += w * p
    return out


def fusion_analysis_apply(ff: FusionFrame, x) -> list[np.ndarray]:
    """Weighted projections of x onto each subspace."""
    x = linalg.as_vector(x, ff.dim)
    return [w * (s.basis @ (s.basis.T @ x)) for s, w in ff.members]


def fusion_redundancy_at(ff: FusionFrame, x) -> float:
    """Redundancy function at a unit vector: sum of squared projection norms.

    Weights are deliberately not applied; the definition sums bare
    projections.
    """
    x = linalg.as_vector(x, ff.dim)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError(f"redundancy is defined on the unit sphere; got norm {nx!r}")
    total = 0.0
    for s, _ in ff.members:
        c = s.basis.T @ x
        total += float(c @ c)
    return total


def fusion_redundancy_bounds(ff: FusionFrame) -> RedundancyProfile:
    """Lower/upper redundancy: extreme eigenvalues of the unit-weight projector sum."""
    eigs = linalg.hermitian_eigenvalues(fusion_frame_operator(ff.with_unit_weights()))
    mean = sum(s.dim for s, _ in ff.members) / ff.dim
    return profile_from_extremes(eigs[0], eigs[-1], mean)


def is_orthonormal_fusion_basis(ff: FusionFrame, tol: float = BASIS_TOL) -> bool:
    """True iff the subspaces are pairwise orthogonal and tile the whole space."""
    if sum(s.dim for s, _ in ff.members) != ff.dim:
        return False
    bases = [s.basis for s, _ in ff.members]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            # ||U_i^T U_j|| = ||P_i P_j|| for orthonormal bases.
            if linalg.operator_norm(bases[i].T @ bases[j]) > tol:
                return False
    total = sum(projection_matrix(s) for s, _ in ff.members)
    return linalg.operator_norm(total - np.eye(ff.dim)) <= tol


def fusion_redundancy_oracle(ff: FusionFrame, samples: int, seed: int) -> tuple[float, float]:
    """Observed (min, max) of the fusion redundancy function on sampled unit vectors."""
    # Stacking all bases lets one matmul evaluate the whole projector sum.
    stacked = np.hstack([s.basis for s, _ in ff.members])
    return _sphere_extremes(stacked, samples, seed)
