"""Dense spectral and factorization primitives.

Matrices are plain float64 numpy arrays. Everything here is pure and
deterministic; all other modules route their matrix algebra through these
four functions so tolerances live in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

# Relative rank tolerance used wherever a rank decision is made.
RANK_TOL = 1e-10


def as_matrix(m, *, square: bool = False) -> np.ndarray:
    """Validate and convert input to a 2-D float64 array.

    Raises DimensionError for non-2-D (or non-square when required) input
    and NumericError for NaN/Inf entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    return a


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert input to a 1-D float64 array of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise NumericError("vector contains non-finite entries")
    return v


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    The input is symmetrized via (m + m^T)/2 before decomposition; frame
    operators are symmetric only up to roundoff, so callers are expected
    to pass matrices with symmetry defect below ~1e-10.
    """
    a = as_matrix(m, square=True)
    sym = 0.5 * (a + a.T)
    return np.linalg.eigvalsh(sym)


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, sorted descending (length min(rows, cols))."""
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(min(a.shape))
    return np.linalg.svd(a, compute_uv=False)


def operator_norm(m) -> float:
    """Spectral norm: the largest singular value (0 for empty or zero matrices)."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def orthonormalize(vectors, tol: float = RANK_TOL, dim: int | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of ``vectors`` via modified Gram-Schmidt.

    A vector is dropped when its residual after projecting out previously
    accepted columns has norm <= tol times the largest input norm, so the
    rank does not change when the input is rescaled.  A second projection
    pass keeps the basis orthonormal to ~1e-15 even for nearly dependent
    inputs.

    Parameters
    ----------
    vectors : sequence of length-n arrays
    tol : relative drop tolerance (must be > 0)
    dim : ambient dimension, required only when ``vectors`` is empty

    Returns
    -------
    (basis, rank) : n-by-rank array with orthonormal columns, and its rank.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        if dim is None:
            dim = 0
        return np.zeros((dim, 0)), 0
    n = vecs[0].shape[0]
    vecs = [as_vector(v, n) for v in vecs]
    cutoff = tol * max(np.linalg.norm(v) for v in vecs)
    cols: list[np.ndarray] = []
    for v in vecs:
        r = v.copy()
        for q in cols:
            r -= (q @ r) * q
        for q in cols:  # re-orthogonalization pass
            r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm <= cutoff:
            continue
        cols.append(r / norm)
    if not cols:
        return np.zeros((n, 0)), 0
    basis = np.column_stack(cols)
    return basis, basis.shape[1]
