"""Fusion frames: weighted subspaces, projections, bounds, redundancy.

Subspaces are stored as orthonormal bases (rank explicit, projector
invariants checkable); orthogonal projectors are derived on demand.  A
fusion frame exposes the column stacks of ``frames.Frame``, so the
operator, bounds and redundancy are the functions of ``frames``; the
``fusion_*`` names below are aliases for them.  Fusion redundancy sums
bare projections and ignores the weights: it is read off the stacked
bases ``[U_1 ... U_N]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError
from .frames import (
    frame_operator,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_bounds,
    redundancy_oracle,
)

# Orthonormality defect admitted in a stored basis.
BASIS_TOL = 1e-10


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

    @property
    def synthesis_columns(self) -> np.ndarray:
        """``[w_1 U_1 ... w_N U_N]``: n-by-K, K the sum of the ranks."""
        return np.hstack([w * s.basis for s, w in self.members])

    @property
    def unit_columns(self) -> np.ndarray:
        """``[U_1 ... U_N]``: the stacked orthonormal bases."""
        return np.hstack([s.basis for s, _ in self.members])

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(s.dim for s, _ in self.members)


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
    if norm == 0:
        raise DegenerateInputError("cannot span a zero vector")
    return Subspace((v / norm)[:, None])


def projection_matrix(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (basis times its transpose)."""
    return s.basis @ s.basis.T


fusion_frame_operator = frame_operator
fusion_frame_bounds = optimal_frame_bounds
fusion_redundancy_at = redundancy_at
fusion_redundancy_bounds = redundancy_bounds
fusion_redundancy_oracle = redundancy_oracle


def is_orthonormal_fusion_basis(ff: FusionFrame, tol: float = BASIS_TOL) -> bool:
    """True iff the subspaces are pairwise orthogonal and tile the whole
    space: K = n and the stacked bases form an orthogonal matrix."""
    u = ff.unit_columns
    if u.shape[1] != ff.dim:
        return False
    return linalg.operator_norm(u.T @ u - np.eye(ff.dim)) <= tol
