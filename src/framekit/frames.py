"""Frames in R^n: optimal bounds, Riesz detection, redundancy.

A frame of N vectors in R^n is the fusion frame of the vectors' spans,
weighted by their norms.  Both kinds hold the same n-by-K column stacks:
``synthesis_columns`` (the vectors, or ``[w_1 U_1 ... w_N U_N]``),
``unit_columns`` (the normalized vectors, or ``[U_1 ... U_N]``) and the
block widths ``ranks`` (1 per vector).  The optimal bounds (the extreme
eigenvalues of the operator ``T T^T``) and the redundancy (those of
``U U^T``) are written once against them.  Both kinds are immutable and
measure each stack and its spectrum once, read-only.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
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


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """Mask of the norms above ZERO_VECTOR_TOL times the largest one."""
    return norms > ZERO_VECTOR_TOL * np.max(norms)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, which must own its data and is made
    read-only too: numpy refuses to make such a view writeable again."""
    a.flags.writeable = False
    return a.view()


def _pair_memo(a, b, name: str, compute):
    """``compute(a, b)``, kept in ``b.__dict__`` beside a weak reference to
    ``a`` (so no cycle) and reused only for that object, not an equal copy."""
    held = b.__dict__.get(name)
    if held is None or held[0]() is not a:
        held = b.__dict__[name] = (weakref.ref(a), compute(a, b))
    return held[1]


class _Spectra:
    """The Gram spectra of the two column stacks, ascending, read-only and
    kept in the instance ``__dict__`` (a failed measurement is not kept)."""

    @cached_property
    def _operator_eigenvalues(self) -> np.ndarray:
        return _read_only(linalg._gram_eigenvalues(self.synthesis_columns))

    @cached_property
    def _unit_eigenvalues(self) -> np.ndarray:
        return _read_only(linalg._gram_eigenvalues(self.unit_columns))


@dataclass(frozen=True)
class Frame(_Spectra):
    """Ordered list of N vectors in R^n, stored as the rows of an (N, n) array."""

    vectors: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = linalg.as_matrix(self.vectors)
        if arr.shape[0] < 1:
            raise DimensionError("a frame needs at least one vector")
        if arr.shape[1] < 1:
            raise DimensionError("ambient dimension must be positive")
        arr = _read_only(arr.copy())
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
        """Vector norms, summed in units of the largest entry's binade (exact)."""
        e = math.frexp(np.abs(self.vectors).max())[1]
        return np.ldexp(np.linalg.norm(np.ldexp(self.vectors, -e), axis=1), e)

    @property
    def synthesis_columns(self) -> np.ndarray:
        """The n-by-N matrix whose column i is vector i (read-only view)."""
        return self.vectors.T

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """The normalized vectors as columns; DegenerateInputError names
        the first zero vector."""
        norms = self.norms()
        zero = np.flatnonzero(~_nonzero(norms))
        if zero.size:
            raise DegenerateInputError(
                f"vector {zero[0]} has norm {norms[zero[0]]:.3e}; spans of zero vectors are undefined"
            )
        return _read_only(self.vectors / norms[:, None]).T

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) * self.count


class _Record:
    """Report dataclass mixin: ``to_dict`` gives the fields in declaration
    order, tuples as lists and dicts as copies."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class BoundsReport(_Record):
    """Optimal lower/upper frame bounds plus the derived classification flags."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool


@dataclass(frozen=True)
class RedundancyProfile(_Record):
    """Lower/upper redundancy, uniformity flag, and the trace-based mean."""

    lower: float
    upper: float
    uniform: bool
    mean: float


def bounds_from_extremes(low: float, high: float) -> BoundsReport:
    """Build a BoundsReport from extreme operator eigenvalues (clamped at 0);
    framehood is decided relative to scale, as ``low > RANK_TOL * high``."""
    low = max(0.0, float(low))
    high = max(0.0, float(high))
    tight = abs(high - low) <= TIGHT_TOL * high
    parseval = tight and abs(low - 1.0) <= TIGHT_TOL and abs(high - 1.0) <= TIGHT_TOL
    return BoundsReport(
        lower=low,
        upper=high,
        is_frame=low > linalg.RANK_TOL * high,
        is_tight=tight,
        is_parseval=parseval,
    )


def optimal_frame_bounds(f: Frame | FusionFrame) -> BoundsReport:
    """Optimal bounds: the extreme eigenvalues of the operator."""
    eigs = f._operator_eigenvalues
    return bounds_from_extremes(eigs[0], eigs[-1])


def is_riesz_basis(f: Frame) -> bool:
    """True iff the frame has exactly n vectors and they are invertible."""
    if f.count != f.dim:
        return False
    return optimal_frame_bounds(f).is_frame


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
    unit columns ``U``, with mean ``K / n``."""
    eigs = f._unit_eigenvalues
    b = bounds_from_extremes(eigs[0], eigs[-1])
    return RedundancyProfile(
        lower=b.lower, upper=b.upper, uniform=b.is_tight, mean=f.unit_columns.shape[1] / f.dim
    )
