"""Frames in R^n: operators, optimal bounds, Riesz detection, redundancy.

A frame is an ordered list of N vectors spanning (or not) an n-dimensional
real space.  Optimal bounds are the extreme eigenvalues of the frame
operator; the lower/upper redundancy are the optimal bounds of the
normalized (unit-vector) version, and the sampling oracle cross-checks
that spectral shortcut against the sphere sup/inf it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateInputError, DimensionError, PreconditionError

# A vector below this norm has no well-defined span.
ZERO_VECTOR_TOL = 1e-12
# Relative tolerance for "the two bounds coincide" flags.
TIGHT_TOL = 1e-9
# How far from the unit sphere a redundancy query point may sit.
UNIT_NORM_TOL = 1e-9


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
    tight = abs(high - low) <= TIGHT_TOL * max(1.0, high)
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
    uniform = abs(high - low) <= TIGHT_TOL * max(1.0, high)
    return RedundancyProfile(lower=low, upper=high, uniform=uniform, mean=float(mean))


def synthesis_matrix(f: Frame) -> np.ndarray:
    """The n-by-N matrix whose column i is vector i (maps coefficients to sums)."""
    return f.vectors.T.copy()


def analysis_apply(f: Frame, x) -> np.ndarray:
    """Coefficient vector of inner products <x, v_i>."""
    x = linalg.as_vector(x, f.dim)
    return f.vectors @ x


def frame_operator(f: Frame) -> np.ndarray:
    """Sum of outer products v_i v_i^T (synthesis composed with analysis)."""
    return f.vectors.T @ f.vectors


def optimal_frame_bounds(f: Frame, rank_tol: float = linalg.RANK_TOL) -> BoundsReport:
    """Optimal bounds: the extreme eigenvalues of the frame operator."""
    eigs = linalg.hermitian_eigenvalues(frame_operator(f))
    return bounds_from_extremes(eigs[0], eigs[-1], rank_tol)


def is_riesz_basis(f: Frame, tol: float = linalg.RANK_TOL) -> bool:
    """True iff the frame has exactly n vectors and they are invertible."""
    if f.count != f.dim:
        return False
    return optimal_frame_bounds(f, tol).is_frame


def _require_no_zero_vectors(f: Frame) -> np.ndarray:
    norms = f.norms()
    bad = np.nonzero(norms <= ZERO_VECTOR_TOL)[0]
    if bad.size:
        raise DegenerateInputError(
            f"vector {bad[0]} has norm {norms[bad[0]]:.3e}; spans of zero vectors are undefined"
        )
    return norms


def normalize_frame(f: Frame) -> Frame:
    """Rescale every vector to unit norm (errors on zero vectors)."""
    norms = _require_no_zero_vectors(f)
    return Frame(f.vectors / norms[:, None], labels=f.labels)


def redundancy_at(f: Frame, x) -> float:
    """Redundancy function at a unit vector: sum of squared projections
    of x onto the spans of the frame vectors."""
    x = linalg.as_vector(x, f.dim)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError(f"redundancy is defined on the unit sphere; got norm {nx!r}")
    norms = _require_no_zero_vectors(f)
    coeffs = (f.vectors @ x) / norms
    return float(coeffs @ coeffs)


def redundancy_bounds(f: Frame) -> RedundancyProfile:
    """Lower/upper redundancy: optimal bounds of the normalized frame.

    The redundancy function is the quadratic form of the normalized
    frame operator, so its sphere inf/sup are that operator's extreme
    eigenvalues; ``redundancy_oracle`` provides the independent check.
    """
    eigs = linalg.hermitian_eigenvalues(frame_operator(normalize_frame(f)))
    return profile_from_extremes(eigs[0], eigs[-1], f.count / f.dim)


def _sphere_extremes(columns: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Observed (min, max) of ||x @ columns||^2 over seeded Gaussian
    directions x normalized onto the unit sphere of R^n (``columns`` is
    n-by-m).  Deterministic per seed."""
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    remaining = samples
    while remaining > 0:
        block = min(remaining, 32768)
        x = rng.standard_normal((block, columns.shape[0]))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        coeffs = x @ columns
        vals = np.einsum("ij,ij->i", coeffs, coeffs)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
        remaining -= block
    return lo, hi


def redundancy_oracle(f: Frame, samples: int, seed: int) -> tuple[float, float]:
    """Observed (min, max) of the redundancy function on sampled unit vectors.

    Samples Gaussian directions, normalizes them onto the sphere, and
    evaluates the redundancy function directly.  Deterministic per seed.
    """
    norms = _require_no_zero_vectors(f)
    return _sphere_extremes((f.vectors / norms[:, None]).T, samples, seed)
