"""Fusion frames: weighted subspaces, bounds, redundancy.

Subspaces are stored as orthonormal bases ``B`` (rank explicit), so the
orthogonal projector is ``B B^T`` wherever one is needed.  A
fusion frame exposes the column stacks of ``frames.Frame``, so its
operator, bounds and redundancy are the functions of ``frames``, which
take either kind.  Fusion redundancy sums bare projections and ignores
the weights: it is read off the stacked bases ``[U_1 ... U_N]``; the
synthesis stack is that stack times each column's weight.  That stack,
its ranks and the weights are a fusion frame's state (``_stacked``),
however it was built; its members are copied out of the stack when
first read.  Bases are Gram-checked where they enter (``Subspace(basis)``,
file loading), not where framekit makes them (QR factors, geodesics,
``full_space``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError
from .frames import _blocks, _read_only, _Reports

# Orthonormality defect admitted in a stored basis.
BASIS_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^n held as an n-by-k orthonormal basis.
    The constructor checks shape, finiteness and Gram defect; the bases
    framekit makes orthonormal (QR factors, geodesics, identities) skip it."""

    basis: np.ndarray

    def __post_init__(self):
        b = linalg.as_matrix(self.basis)
        n, k = b.shape
        if k < 1 or k > n:
            raise DimensionError(f"subspace dimension {k} must lie in [1, {n}]")
        defect = np.abs(b.T @ b - np.eye(k)).max()
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


@dataclass(frozen=True, init=False)
class FusionFrame(_Reports):
    """Ordered list of (subspace, positive weight) pairs in a common R^n,
    held as its stack ``[U_1 ... U_N]``, ranks and read-only weights.  The
    constructor checks the members it is given and keeps only their stack."""

    unit_columns: np.ndarray
    ranks: tuple[int, ...]
    weights: np.ndarray

    def __init__(self, members):
        members = tuple((s, float(w)) for s, w in members)
        if not members:
            raise DimensionError("a fusion frame needs at least one subspace")
        n = members[0][0].ambient_dim
        for i, (s, w) in enumerate(members):
            if s.ambient_dim != n:
                raise DimensionError(f"member {i} lives in R^{s.ambient_dim}, expected R^{n}")
            if not w > 0:
                raise PreconditionError(f"weight {i} must be positive, got {w}")
        subspaces, weights = zip(*members)
        stacked = _stacked(np.hstack([s.basis for s in subspaces]), [s.dim for s in subspaces], weights)
        self.__dict__.update(vars(stacked))

    @property
    def dim(self) -> int:
        return self.unit_columns.shape[0]

    @property
    def count(self) -> int:
        return len(self.ranks)

    @cached_property
    def members(self) -> tuple[tuple[Subspace, float], ...]:
        """The (subspace, weight) pairs; the subspaces are read-only
        C-layout copies of the blocks of the stack, unchecked."""
        return tuple((_orthonormal_subspace(b), float(w)) for b, w in zip(_blocks(self), self.weights))

    @property
    def subspaces(self) -> tuple[Subspace, ...]:
        return tuple(s for s, _ in self.members)

    def with_unit_weights(self) -> "FusionFrame":
        """The same subspaces at weight 1, sharing this frame's read-only
        unit stack: ``self`` when every weight is 1."""
        if (self.weights == 1.0).all():
            return self
        return _stacked(self.unit_columns, self.ranks, np.ones(self.count))

    @cached_property
    def synthesis_columns(self) -> np.ndarray:
        """``[w_1 U_1 ... w_N U_N]``: n-by-K, K the sum of the ranks, as
        one product of the unit stack with each column's weight."""
        return _read_only(self.unit_columns * self.weights.repeat(self.ranks))


def _orthonormal_subspace(basis: np.ndarray) -> Subspace:
    """Subspace of a basis orthonormal by construction: copied read-only, unchecked."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "basis", _read_only(basis.copy()))
    return s


def _stacked(cols: np.ndarray, ranks, weights) -> FusionFrame:
    """Fusion frame of an n-by-K stack whose blocks of widths ``ranks``
    are orthonormal, unchecked: ``cols`` is its ``unit_columns``, made
    read-only unless it is already.  It builds no member."""
    ff = object.__new__(FusionFrame)
    ff.__dict__.update(
        unit_columns=_read_only(cols) if cols.flags.writeable else cols,
        ranks=tuple(ranks),
        weights=_read_only(np.array(weights, dtype=float)),
    )
    return ff


def subspace_from_spanning(vectors) -> Subspace:
    """Subspace spanned by arbitrary vectors; rank is decided at ``linalg.RANK_TOL``."""
    basis, rank = linalg.orthonormalize(vectors)
    if rank == 0:
        raise DegenerateInputError("spanning set contains no vector above tolerance")
    return _orthonormal_subspace(basis)


def full_space(n: int) -> Subspace:
    """The whole ambient space, its identity basis unchecked (``Subspace`` rejects n = 0)."""
    basis = np.eye(n)
    return _orthonormal_subspace(basis) if n > 0 else Subspace(basis)


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
