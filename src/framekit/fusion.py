"""Fusion frames: weighted subspaces, bounds, redundancy.

Subspaces are stored as orthonormal bases ``B`` (rank explicit), so the
orthogonal projector is ``B B^T`` wherever one is needed.  A
fusion frame exposes the column stacks of ``frames.Frame``, so its
operator, bounds and redundancy are the functions of ``frames``, which
take either kind.  Fusion redundancy sums bare projections and ignores
the weights: it is read off the stacked bases ``[U_1 ... U_N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError
from .frames import _read_only, _Spectra

# Orthonormality defect admitted in a stored basis.
BASIS_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^n held as an n-by-k orthonormal basis.
    The constructor checks shape, finiteness and Gram defect; the bases
    framekit makes orthonormal (QR factors, geodesic points) skip it."""

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
        object.__setattr__(self, "basis", _read_only(b.copy()))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class FusionFrame(_Spectra):
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
        """The same subspaces at weight 1: ``self`` when every weight is 1."""
        if all(w == 1.0 for _, w in self.members):
            return self
        return FusionFrame(tuple((s, 1.0) for s, _ in self.members))

    @cached_property
    def synthesis_columns(self) -> np.ndarray:
        """``[w_1 U_1 ... w_N U_N]``: n-by-K, K the sum of the ranks."""
        return _read_only(np.hstack([w * s.basis for s, w in self.members]))

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """``[U_1 ... U_N]``: the stacked orthonormal bases."""
        return _read_only(np.hstack([s.basis for s, _ in self.members]))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(s.dim for s, _ in self.members)


def _orthonormal_subspace(basis: np.ndarray) -> Subspace:
    """Subspace of a basis orthonormal by construction: copied read-only, unchecked."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "basis", _read_only(basis.copy()))
    return s


def subspace_from_spanning(vectors) -> Subspace:
    """Subspace spanned by arbitrary vectors; rank is decided at ``linalg.RANK_TOL``."""
    basis, rank = linalg.orthonormalize(vectors)
    if rank == 0:
        raise DegenerateInputError("spanning set contains no vector above tolerance")
    return _orthonormal_subspace(basis)


def full_space(n: int) -> Subspace:
    """The whole ambient space as a subspace."""
    return Subspace(np.eye(n))


def vector_span(vec) -> Subspace:
    """One-dimensional span of a nonzero vector: ``subspace_from_spanning``
    of the one vector, so zero is decided by the same scale-free rule."""
    return subspace_from_spanning([linalg.as_vector(vec)])


def is_orthonormal_fusion_basis(ff: FusionFrame) -> bool:
    """True iff the subspaces are pairwise orthogonal and tile the whole
    space: K = n and the stacked bases form an orthogonal matrix."""
    u = ff.unit_columns
    if u.shape[1] != ff.dim:
        return False
    return linalg._top_singular_value(u.T @ u - np.eye(ff.dim)) <= BASIS_TOL
