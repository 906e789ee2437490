"""Frames in R^n: operators, optimal bounds, Riesz detection, redundancy.

A frame of N vectors in R^n is the fusion frame of the vectors' spans,
weighted by their norms.  Both kinds hold the same n-by-K column stacks:
``synthesis_columns`` (the vectors, or ``[w_1 U_1 ... w_N U_N]``),
``unit_columns`` (the normalized vectors, or ``[U_1 ... U_N]``) and the
block widths ``ranks`` (1 per vector).  The operator ``T T^T``, its
optimal bounds, the redundancy (the extreme eigenvalues of ``U U^T``)
and its sampling oracle are written once against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError

if TYPE_CHECKING:
    from .fusion import FusionFrame

# A vector whose norm is at most this fraction of the largest norm in its
# frame counts as zero: it has no well-defined span.
ZERO_VECTOR_TOL = 1e-12
# Relative tolerance for "the two bounds coincide" flags.
TIGHT_TOL = 1e-9
# How far from the unit sphere a redundancy query point may sit.
UNIT_NORM_TOL = 1e-9
# Byte budget of a ``_rank_stacks`` chunk at n-by-n per member, the
# largest per-member array a stacked kernel forms (a gap residual).
STACK_BYTES = 256 * 1024


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """Mask of the norms above ZERO_VECTOR_TOL times the largest one."""
    return norms > ZERO_VECTOR_TOL * np.max(norms)


def _rank_stacks(ranks, *column_stacks):
    """Yield ``(members, cols, blocks)`` per chunk of equal-rank members
    of n-by-K column stacks (at most ``STACK_BYTES / (8 n^2)``, at least
    one): their indices, their columns, and per column stack their
    blocks as one C-contiguous ``(m, n, k)`` array.  A block keeps the
    layout of its member's basis, so one stacked call gives each member
    the bits of a call on it alone."""
    widths = np.asarray(ranks)
    offsets = np.cumsum(widths) - widths
    n = column_stacks[0].shape[0]
    step = max(1, STACK_BYTES // (8 * n * n))
    for k in sorted(set(ranks)):
        group = np.flatnonzero(widths == k)
        for start in range(0, group.size, step):
            members = group[start : start + step]
            cols = (offsets[members][:, None] + np.arange(k)).ravel()
            yield members, cols, [
                np.ascontiguousarray(c[:, cols].reshape(n, members.size, k).transpose(1, 0, 2))
                for c in column_stacks
            ]


@dataclass(frozen=True)
class Frame:
    """Ordered list of N vectors in R^n, stored as the rows of an (N, n) array."""

    vectors: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = linalg.as_matrix(self.vectors)
        if arr.shape[0] < 1:
            raise DimensionError("a frame needs at least one vector")
        if arr.shape[1] < 1:
            raise DimensionError("ambient dimension must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != arr.shape[0]:
                raise DimensionError(
                    f"{len(labels)} labels for {arr.shape[0]} vectors"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)

    @property
    def synthesis_columns(self) -> np.ndarray:
        """The n-by-N matrix whose column i is vector i (read-only view)."""
        return self.vectors.T

    @property
    def unit_columns(self) -> np.ndarray:
        """The normalized vectors as columns; DegenerateInputError names
        the first zero vector."""
        norms = self.norms()
        zero = np.flatnonzero(~_nonzero(norms))
        if zero.size:
            raise DegenerateInputError(
                f"vector {zero[0]} has norm {norms[zero[0]]:.3e}; spans of zero vectors are undefined"
            )
        return (self.vectors / norms[:, None]).T

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) * self.count


@dataclass(frozen=True)
class BoundsReport:
    """Optimal lower/upper frame bounds plus the derived classification flags."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "is_frame": self.is_frame,
            "is_tight": self.is_tight,
            "is_parseval": self.is_parseval,
        }


@dataclass(frozen=True)
class RedundancyProfile:
    """Lower/upper redundancy, uniformity flag, and the trace-based mean."""

    lower: float
    upper: float
    uniform: bool
    mean: float

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "uniform": self.uniform,
            "mean": self.mean,
        }


def bounds_from_extremes(low: float, high: float, rank_tol: float = linalg.RANK_TOL) -> BoundsReport:
    """Build a BoundsReport from extreme operator eigenvalues (clamped at 0);
    framehood is decided relative to scale, as ``low > rank_tol * high``."""
    low = max(0.0, float(low))
    high = max(0.0, float(high))
    tight = abs(high - low) <= TIGHT_TOL * high
    parseval = tight and abs(low - 1.0) <= TIGHT_TOL and abs(high - 1.0) <= TIGHT_TOL
    return BoundsReport(
        lower=low,
        upper=high,
        is_frame=low > rank_tol * high,
        is_tight=tight,
        is_parseval=parseval,
    )


def profile_from_extremes(low: float, high: float, mean: float) -> RedundancyProfile:
    low = max(0.0, float(low))
    high = max(0.0, float(high))
    uniform = abs(high - low) <= TIGHT_TOL * high
    return RedundancyProfile(lower=low, upper=high, uniform=uniform, mean=float(mean))


def synthesis_matrix(f: Frame) -> np.ndarray:
    """The n-by-N matrix whose column i is vector i (maps coefficients to sums)."""
    return f.synthesis_columns.copy()


def analysis_apply(f: Frame, x) -> np.ndarray:
    """Coefficient vector of inner products <x, v_i>."""
    x = linalg.as_vector(x, f.dim)
    return f.vectors @ x


def frame_operator(f: Frame | FusionFrame) -> np.ndarray:
    """``T T^T`` for the synthesis columns ``T``: the sum of ``v_i v_i^T``
    for a frame, of ``w_i^2 P_i`` for a fusion frame."""
    t = f.synthesis_columns
    return t @ t.T


def optimal_frame_bounds(f: Frame | FusionFrame, rank_tol: float = linalg.RANK_TOL) -> BoundsReport:
    """Optimal bounds: the extreme eigenvalues of the operator."""
    eigs = linalg.hermitian_eigenvalues(frame_operator(f))
    return bounds_from_extremes(eigs[0], eigs[-1], rank_tol)


def is_riesz_basis(f: Frame, tol: float = linalg.RANK_TOL) -> bool:
    """True iff the frame has exactly n vectors and they are invertible."""
    if f.count != f.dim:
        return False
    return optimal_frame_bounds(f, tol).is_frame


def normalize_frame(f: Frame) -> Frame:
    """Rescale every vector to unit norm (errors on zero vectors)."""
    return Frame(f.unit_columns.T, labels=f.labels)


def redundancy_at(f: Frame | FusionFrame, x) -> float:
    """Redundancy function at a unit vector: the sum of squared norms of
    the projections of x onto the members' spans (weights not applied)."""
    x = linalg.as_vector(x, f.dim)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError(f"redundancy is defined on the unit sphere; got norm {nx!r}")
    coeffs = x @ f.unit_columns
    return float(coeffs @ coeffs)


def redundancy_bounds(f: Frame | FusionFrame) -> RedundancyProfile:
    """Lower/upper redundancy: the extreme eigenvalues of ``U U^T`` for the
    unit columns ``U``, with mean ``K / n``.  ``redundancy_oracle``
    provides the independent check."""
    u = f.unit_columns
    eigs = linalg.hermitian_eigenvalues(u @ u.T)
    return profile_from_extremes(eigs[0], eigs[-1], u.shape[1] / f.dim)


def redundancy_oracle(f: Frame | FusionFrame, samples: int, seed: int) -> tuple[float, float]:
    """Observed (min, max) of the redundancy function on sampled unit vectors.

    Samples seeded Gaussian directions, normalizes them onto the sphere,
    and evaluates the redundancy function directly.  Deterministic per seed.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    u = f.unit_columns
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    remaining = samples
    while remaining > 0:
        block = min(remaining, 32768)
        x = rng.standard_normal((block, f.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        coeffs = x @ u
        vals = np.einsum("ij,ij->i", coeffs, coeffs)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
        remaining -= block
    return lo, hi
